//! `durable_serve`: an 8-monitor task with obs on, a checkpoint WAL, a
//! sample recorder writing a live store and the serve plane attached,
//! while one client thread scrapes `/metrics` and pages `/api/v1/query`
//! on an open-loop schedule.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use volley_core::Tick;
use volley_obs::Obs;
use volley_runtime::{RuntimeReport, TaskRunner, Wal, WalRecord, WalSyncPolicy};
use volley_serve::{envelope, ServeConfig, Server, ServerHandle};
use volley_store::query::{run_query, QueryParams};
use volley_store::{RecordKind, SampleRecorder, ScanRange, Store};

use crate::gen::TaskInputs;
use crate::stats::{median, ratio, Summary};
use crate::trace::Tracer;
use crate::{sys, task, Outcome};

/// Monitors in the durable task.
const MONITORS: usize = 8;
/// Windows one run of the durable task covers.
const TICKS: usize = 2000;
/// Windows of the store recorded at set-up for the query endpoint.
const QUERY_STORE_TICKS: usize = 500;
/// Workload set-ups per run; `setup_s` is their median plus the median of
/// the program's own construction before each timed run.
const SETUPS: usize = 5;
/// Snapshot cadence of the checkpoint WAL, windows.
const CHECKPOINT_EVERY: u64 = 100;
/// WAL fsync policy under test: none, so records reach the page cache
/// and the WAL's encode-and-write path is what is timed. With `EveryN(8)`
/// the fsyncs set the pace, and on a shared disk their latency is the
/// neighbours' load: a disk writer beside the run made it 3.5x slower.
const WAL_SYNC: WalSyncPolicy = WalSyncPolicy::Never;
/// Open-loop rate of each request class, per second.
const RATE_PER_CLASS: f64 = 100.0;
/// Query page size and the number of distinct pages cycled through.
const PAGE: usize = 64;
const PAGES: u64 = 16;

/// A request class of the open-loop client.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    Scrape,
    Query,
}

/// One request: when it was due, how late it went out, how long until
/// its response completed (from the due time), and whether it counted.
#[derive(Debug, Clone, Copy)]
struct Request {
    class: Class,
    late_ns: u64,
    latency_ns: u64,
    ok: bool,
}

/// The state `layers` reads after the workload ran.
pub struct Durable {
    pub inputs: TaskInputs,
    work: PathBuf,
    query_dir: String,
    last_wal: PathBuf,
    last_store: PathBuf,
    obs: Obs,
    requests: Vec<Request>,
    /// The serve plane, still up so the traced pass runs as the timed
    /// ones did; shut down by `layers` for its counters.
    server: Option<ServerHandle>,
    recorder_io_errors: u64,
}

/// One `Connection: close` GET; the status line and body.
fn http_get(addr: SocketAddr, target: &str) -> std::io::Result<(String, Vec<u8>)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(10)))?;
    stream.write_all(
        format!("GET {target} HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n\r\n").as_bytes(),
    )?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    let split = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .map_or(raw.len(), |p| p + 4);
    let status = String::from_utf8_lossy(&raw[..split])
        .lines()
        .next()
        .unwrap_or("")
        .to_string();
    Ok((status, raw[split..].to_vec()))
}

fn query_params(page: u64) -> QueryParams {
    QueryParams {
        task: Some(0),
        limit: Some(PAGE),
        cursor: page * PAGE as u64,
        ..QueryParams::default()
    }
}

fn query_target(page: u64) -> String {
    format!(
        "/api/v1/query?task=0&limit={PAGE}&cursor={}",
        page * PAGE as u64
    )
}

/// Expected body of every query page, from a direct open of the set-up
/// store; each page's rows are first checked against a plain
/// `Store::scan` of the same range.
fn expected_pages(dir: &str) -> (Vec<Vec<u8>>, bool) {
    let store = Store::open(dir).expect("open the set-up store");
    let mut scan_ok = true;
    let pages = (0..PAGES)
        .map(|page| {
            let params = query_params(page);
            let report = run_query(&store, dir, &params).expect("query the set-up store");
            let direct: Vec<(u32, Tick, u64)> = store
                .scan(&params.range())
                .expect("scan")
                .skip(params.cursor as usize)
                .take(PAGE)
                .map(|r| (r.monitor, r.tick, r.value.to_bits()))
                .collect();
            let rows: Vec<(u32, Tick, u64)> = report
                .records
                .iter()
                .map(|r| (r.monitor, r.tick, r.value.to_bits()))
                .collect();
            scan_ok &= rows == direct && !rows.is_empty();
            envelope("store", &report).into_bytes()
        })
        .collect();
    (pages, scan_ok)
}

/// Set-up: inputs, the query store, the server. Returns the live pieces.
struct Setup {
    inputs: TaskInputs,
    query_dir: String,
    pages: Vec<Vec<u8>>,
    pages_match_scan: bool,
    server: ServerHandle,
    obs: Obs,
}

fn set_up(seed: u64, work: &Path, round: usize) -> Setup {
    let inputs = TaskInputs::netflow(seed, MONITORS, TICKS);
    let query_dir = work.join(format!("query-store-{round}"));
    let store = Store::open(&query_dir).expect("create the query store");
    let recorder = SampleRecorder::new(store);
    let head: Vec<Vec<f64>> = inputs
        .traces
        .iter()
        .map(|t| t[..QUERY_STORE_TICKS].to_vec())
        .collect();
    TaskRunner::new(&inputs.spec)
        .expect("runner builds")
        .with_recorder(recorder)
        .run(&head)
        .expect("recording run");
    let query_dir = query_dir.to_string_lossy().into_owned();
    let (pages, pages_match_scan) = expected_pages(&query_dir);
    let obs = Obs::new(true);
    let server = Server::start(
        ServeConfig::new("127.0.0.1:0").with_store_dir(query_dir.clone()),
        &obs,
    )
    .expect("bind the serve plane");
    Setup {
        inputs,
        query_dir,
        pages,
        pages_match_scan,
        server,
        obs,
    }
}

/// The open-loop client: `per_class` requests of each class, alternating,
/// at [`RATE_PER_CLASS`] each. Publishes its own CPU time in `cpu_ns` so
/// it can be left out of the program's.
fn client(
    addr: SocketAddr,
    pages: Vec<Vec<u8>>,
    per_class: usize,
    cpu_ns: Arc<AtomicU64>,
    mismatches: Arc<AtomicU64>,
) -> Vec<Request> {
    let period = Duration::from_secs_f64(1.0 / (2.0 * RATE_PER_CLASS));
    let cpu_start = sys::thread_cpu_ns();
    let start = Instant::now();
    let mut out = Vec::with_capacity(2 * per_class);
    for i in 0..2 * per_class {
        let due = start + period * i as u32;
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        let sent = Instant::now();
        let (class, result) = if i % 2 == 0 {
            (Class::Scrape, http_get(addr, "/metrics"))
        } else {
            let page = (i as u64 / 2) % PAGES;
            let result = http_get(addr, &query_target(page));
            if let Ok((_, body)) = &result {
                if *body != pages[page as usize] {
                    mismatches.fetch_add(1, Ordering::Relaxed);
                }
            }
            (Class::Query, result)
        };
        let done = Instant::now();
        let ok = matches!(&result, Ok((status, _)) if status.starts_with("HTTP/1.1 200"));
        out.push(Request {
            class,
            late_ns: sent.saturating_duration_since(due).as_nanos() as u64,
            latency_ns: done.saturating_duration_since(due).as_nanos() as u64,
            ok,
        });
        cpu_ns.store(sys::thread_cpu_ns() - cpu_start, Ordering::Relaxed);
    }
    out
}

/// One timed closed-loop run of the durable task with every sink
/// attached.
struct Pass {
    report: RuntimeReport,
    /// The program's own set-up: live store open and runner construction.
    prepare_s: f64,
    wall_s: f64,
    cpu_ns: u64,
    /// Time the host stole from each CPU during the run, ns.
    steal_ns: u64,
    recorder: SampleRecorder,
}

fn pass(inputs: &TaskInputs, obs: &Obs, server: &ServerHandle, wal: &Path, live: &Path) -> Pass {
    let prepare = Instant::now();
    let recorder = SampleRecorder::new(Store::open(live).expect("open the live store"));
    let runner = TaskRunner::new(&inputs.spec)
        .expect("runner builds")
        .with_obs(obs.clone())
        .with_wal(wal, CHECKPOINT_EVERY)
        .with_wal_sync(WAL_SYNC)
        .with_recorder(recorder.clone())
        .with_serve_publisher(server.publisher());
    let prepare_s = prepare.elapsed().as_secs_f64();
    let (cpu, steal) = (sys::process_cpu_ns(), sys::steal_ns());
    let started = Instant::now();
    let report = runner.run(&inputs.traces).expect("durable run");
    Pass {
        report,
        prepare_s,
        wall_s: started.elapsed().as_secs_f64(),
        cpu_ns: sys::process_cpu_ns() - cpu,
        steal_ns: sys::steal_ns() - steal,
        recorder,
    }
}

/// The workload: set up ([`SETUPS`] times, median), then closed-loop task
/// runs until both `seconds` passed and the client sent at least
/// `per_class` requests of each class at the open-loop rate.
pub fn run(seed: u64, seconds: f64, per_class: usize, work: &Path) -> (Outcome, Durable) {
    let mut out = Outcome::new();
    let mut setup_times = Vec::new();
    let mut setup: Option<Setup> = None;
    for round in 0..SETUPS {
        let started = Instant::now();
        let s = set_up(seed, work, round);
        setup_times.push(started.elapsed().as_secs_f64());
        if let Some(old) = setup.replace(s) {
            old.server.shutdown();
            let _ = std::fs::remove_dir_all(&old.query_dir);
        }
    }
    let setup = setup.expect("set up");
    out.check(
        "durable_serve: set-up query pages equal a direct Store::scan",
        setup.pages_match_scan,
    );
    let inputs = setup.inputs;
    let reference = task::run_once(task::Transport::InProc, &inputs, None).report;

    let stop_fleet = Arc::new(AtomicBool::new(false));
    let client_cpu = Arc::new(AtomicU64::new(0));
    let mismatches = Arc::new(AtomicU64::new(0));
    let addr = setup.server.local_addr();
    let client_thread = {
        let (cpu, bad, pages) = (
            Arc::clone(&client_cpu),
            Arc::clone(&mismatches),
            setup.pages,
        );
        let stop = Arc::clone(&stop_fleet);
        std::thread::spawn(move || {
            let requests = client(addr, pages, per_class, cpu, bad);
            stop.store(true, Ordering::Relaxed);
            requests
        })
    };

    let (mut rates, mut walls, mut prepares, mut cpu_ns) =
        (Vec::new(), Vec::new(), Vec::new(), 0u64);
    let (mut ticks, mut failed_ticks, mut io_errors) = (0u64, 0u64, 0u64);
    let (mut wal_ok, mut store_ok, mut alerts_ok) = (true, true, true);
    let (mut last_wal, mut last_store) = (PathBuf::new(), PathBuf::new());
    let started = Instant::now();
    let mut passes = 0usize;
    let mut last_report = None;
    while !stop_fleet.load(Ordering::Relaxed) || started.elapsed().as_secs_f64() < seconds {
        let wal = work.join(format!("pass-{passes}.wal"));
        let live = work.join(format!("live-store-{passes}"));
        let client_before = client_cpu.load(Ordering::Relaxed);
        let Pass {
            report,
            prepare_s,
            wall_s,
            cpu_ns: cpu,
            steal_ns,
            recorder,
        } = pass(&inputs, &setup.obs, &setup.server, &wal, &live);
        let client_spent = client_cpu.load(Ordering::Relaxed) - client_before;
        cpu_ns += cpu.saturating_sub(client_spent);
        prepares.push(prepare_s);
        rates.push(inputs.monitor_ticks() as f64 / sys::unstolen_wall_s(wall_s, steal_ns));
        walls.push((wall_s, steal_ns));
        ticks += inputs.monitor_ticks();
        failed_ticks += task::failed_ticks(&report);
        io_errors += recorder.io_errors();

        alerts_ok &= report.alert_ticks == reference.alert_ticks;
        wal_ok &= Wal::replay(&wal).is_ok_and(|r| !r.truncated && r.records > 0);
        let stored: Vec<Tick> = recorder.with_store(|s| {
            s.scan(&ScanRange::all().kind(RecordKind::Alert))
                .map(|scan| scan.map(|r| r.tick).collect())
                .unwrap_or_default()
        });
        store_ok &= report.alert_ticks.iter().all(|t| stored.contains(t));
        drop(recorder);
        for old in [&last_wal, &last_store] {
            if !old.as_os_str().is_empty() {
                let _ = std::fs::remove_file(old);
                let _ = std::fs::remove_dir_all(old);
            }
        }
        (last_wal, last_store) = (wal, live);
        last_report = Some(report);
        passes += 1;
    }
    let requests = client_thread.join().expect("client thread");
    let report = last_report.expect("at least one pass");

    out.check(
        "durable_serve: alert ticks identical to the run with no sinks",
        alerts_ok,
    );
    out.check(
        "durable_serve: Wal::replay reports no corrupt records",
        wal_ok,
    );
    out.check(
        "durable_serve: every alert appears in a scan of the live store",
        store_ok,
    );
    out.check(
        "durable_serve: every query page equals a direct Store::scan of its range",
        mismatches.load(Ordering::Relaxed) == 0,
    );
    let http_failed = requests.iter().filter(|r| !r.ok).count() as u64;
    out.attempted = ticks + requests.len() as u64;
    out.failed = failed_ticks + http_failed;
    let (events, detected) = task::detection(&inputs, &report);
    out.check(
        "durable_serve: the inputs contain violation events",
        events > 0,
    );
    out.e2e("monitor_ticks_per_s", median(&rates), "1/s");
    out.e2e(
        "cpu_ns_per_monitor_tick",
        ratio(cpu_ns as f64, ticks as f64),
        "ns",
    );
    out.e2e("cost_ratio", report.cost_ratio(MONITORS), "ratio");
    out.e2e(
        "detect_ratio",
        ratio(detected as f64, events as f64),
        "ratio",
    );
    out.e2e(
        "ok_ratio",
        1.0 - ratio(out.failed as f64, out.attempted as f64),
        "ratio",
    );
    // The workload's set-up plus the program's own per-run set-up.
    out.e2e("setup_s", median(&setup_times) + median(&prepares), "s");
    out.finding_misdetect(1.0 - ratio(detected as f64, events as f64));
    out.line(format!(
        "durable_serve: {MONITORS} monitors x {TICKS} windows, {passes} closed-loop runs; \
         {} scrapes + {} queries open-loop at {RATE_PER_CLASS}/s each, {http_failed} failed",
        requests.iter().filter(|r| r.class == Class::Scrape).count(),
        requests.iter().filter(|r| r.class == Class::Query).count(),
    ));
    out.line(sys::stolen_line(inputs.monitor_ticks(), &walls));
    let durable = Durable {
        inputs,
        work: work.to_path_buf(),
        query_dir: setup.query_dir,
        last_wal,
        last_store,
        obs: setup.obs,
        requests,
        server: Some(setup.server),
        recorder_io_errors: io_errors,
    };
    (out, durable)
}

/// Latency of the requests of `class` that succeeded; the failed ones
/// count in `failed_ratio`, not here.
fn latencies_ms(requests: &[Request], class: Class) -> Summary {
    let ms: Vec<f64> = requests
        .iter()
        .filter(|r| r.class == class && r.ok)
        .map(|r| r.latency_ns as f64 / 1e6)
        .collect();
    Summary::of(&ms)
}

/// ns per call of `f` over `n` calls, median of five rounds.
fn ns_per_call(n: u64, mut f: impl FnMut(u64)) -> f64 {
    let mut rounds = Vec::new();
    for _ in 0..5 {
        let started = Instant::now();
        for i in 0..n {
            f(i);
        }
        rounds.push(started.elapsed().as_nanos() as f64 / n as f64);
    }
    median(&rounds)
}

/// WAL, store, obs and serve numbers for the ledger.
pub fn layers(d: &mut Durable, tracer: &mut Tracer, out: &mut Outcome, native: bool) {
    let server = d.server.take().expect("the serve plane is up");
    if native {
        // Tracing overhead: one pass inside a span against one without,
        // both after the client stopped (the timed passes ran beside it).
        let (wal, live) = (d.work.join("ledger.wal"), d.work.join("ledger-live"));
        let wall = |traced: bool, tracer: &mut Tracer| {
            let started = Instant::now();
            if traced {
                tracer.span("runtime.task_run", |_| {
                    pass(&d.inputs, &d.obs, &server, &wal, &live)
                });
            } else {
                pass(&d.inputs, &d.obs, &server, &wal, &live);
            }
            let _ = std::fs::remove_file(&wal);
            let _ = std::fs::remove_dir_all(&live);
            started.elapsed().as_secs_f64()
        };
        let untraced = wall(false, tracer);
        let traced = wall(true, tracer);
        out.tracing_overhead(traced, untraced);
    }
    let stats = server.shutdown();

    // WAL: append the run's own records, read back, under the same policy.
    let replay = Wal::replay(&d.last_wal).expect("replay the run's WAL");
    let records: Vec<WalRecord> = replay
        .snapshot
        .clone()
        .map(WalRecord::Snapshot)
        .into_iter()
        .chain(replay.tail.iter().map(|t| WalRecord::Tick(*t)))
        .collect();
    let wal_path = d.work.join("ledger.wal");
    let mut wal = Wal::create(&wal_path)
        .expect("create WAL")
        .with_sync_policy(WAL_SYNC);
    let appends: Vec<f64> = tracer.span("runtime.checkpoint.wal_append", |_| {
        (0..2000)
            .map(|i| {
                let started = Instant::now();
                wal.append(&records[i % records.len()]).expect("append");
                started.elapsed().as_nanos() as f64
            })
            .collect()
    });
    let appends = Summary::of(&appends);
    out.layer("wal.append_p50_ns", appends.p50, "ns", native);
    out.layer("wal.append_p99_ns", appends.p99, "ns", native);
    out.layer(
        "wal.persisted",
        wal.stats().persisted.load(Ordering::Relaxed) as f64,
        "count",
        native,
    );
    let wal_bytes = std::fs::metadata(&d.last_wal).map_or(0, |m| m.len());
    out.layer("wal.bytes", wal_bytes as f64, "B", native);
    drop(wal);
    let _ = std::fs::remove_file(&wal_path);

    // Store: re-append the live store's records into a fresh store.
    let live = Store::open(&d.last_store).expect("open the live store");
    let live_records: Vec<_> = live.scan(&ScanRange::all()).expect("scan").collect();
    let segments = live.segments().expect("list segments");
    let live_bytes: u64 = segments
        .iter()
        .map(|(_, p)| std::fs::metadata(p).map_or(0, |m| m.len()))
        .sum();
    let copy_dir = d.work.join("ledger-store");
    let append_ns = tracer.span("store.append", |_| {
        let mut copy = Store::open(&copy_dir).expect("open the copy store");
        let started = Instant::now();
        for r in &live_records {
            copy.append(*r).expect("append");
        }
        copy.flush().expect("flush");
        started.elapsed().as_nanos() as f64
    });
    let _ = std::fs::remove_dir_all(&copy_dir);
    let n = live_records.len().max(1) as f64;
    out.layer("store.append_ns_per_record", append_ns / n, "ns", native);
    out.layer("store.bytes_per_record", live_bytes as f64 / n, "B", native);
    out.layer("store.segments", segments.len() as f64, "count", native);
    out.layer(
        "store.recorder_io_errors",
        d.recorder_io_errors as f64,
        "count",
        native,
    );
    let queries: Vec<f64> = tracer.span("store.query", |_| {
        (0..1000u64)
            .map(|i| {
                let started = Instant::now();
                let store = Store::open(&d.query_dir).expect("open the set-up store");
                let page =
                    run_query(&store, &d.query_dir, &query_params(i % PAGES)).expect("query");
                std::hint::black_box(page);
                started.elapsed().as_nanos() as f64
            })
            .collect()
    });
    let queries = Summary::of(&queries);
    out.layer("store.query_p50_ns", queries.p50, "ns", native);
    out.layer("store.query_p99_ns", queries.p99, "ns", native);

    // Obs: instrument costs on and off, and the Prometheus render.
    let (on, off) = (Obs::new(true), Obs::new(false));
    let (c_on, c_off) = (
        on.registry().counter("bench_counter"),
        off.registry().counter("bench_counter"),
    );
    let h_on = on.registry().histogram("bench_histogram");
    let (counter_on, counter_off, histogram_on, render) = tracer.span("obs", |_| {
        (
            ns_per_call(1_000_000, |_| c_on.inc()),
            ns_per_call(1_000_000, |_| c_off.inc()),
            ns_per_call(1_000_000, |i| h_on.record(i & 0xffff)),
            ns_per_call(200, |i| {
                std::hint::black_box(d.obs.snapshot(i).to_prometheus());
            }),
        )
    });
    out.layer("obs.counter_ns_enabled", counter_on, "ns", native);
    out.layer("obs.counter_ns_disabled", counter_off, "ns", native);
    out.layer("obs.histogram_ns_enabled", histogram_on, "ns", native);
    out.layer("obs.render_ns", render, "ns", native);

    // Serve: the client's view and the loop's counters.
    let scrape = latencies_ms(&d.requests, Class::Scrape);
    let query = latencies_ms(&d.requests, Class::Query);
    let late: Vec<f64> = d.requests.iter().map(|r| r.late_ns as f64 / 1e6).collect();
    out.layer("serve.scrape_p50_ms", scrape.p50, "ms", native);
    out.layer("serve.scrape_p99_ms", scrape.p99, "ms", native);
    out.layer("serve.query_p50_ms", query.p50, "ms", native);
    out.layer("serve.query_p99_ms", query.p99, "ms", native);
    out.layer("serve.wait_ms", scrape.p50 - render / 1e6, "ms", native);
    out.layer(
        "serve.connections",
        stats.connections as f64,
        "count",
        native,
    );
    out.layer(
        "serve.bad_requests",
        stats.bad_requests as f64,
        "count",
        native,
    );
    out.layer(
        "serve.slow_client_drops",
        stats.slow_client_drops as f64,
        "count",
        native,
    );
    out.layer(
        "serve.gen_late_p99_ms",
        Summary::of(&late).p99,
        "ms",
        native,
    );
    if native {
        out.line(format!(
            "serve: scrape n={} p50 {:.3} ms p{} {:.3} ms; query n={} p50 {:.3} ms p{} {:.3} ms (from each request's due time)",
            scrape.n, scrape.p50, scrape.tail_p, scrape.p99, query.n, query.p50, query.tail_p, query.p99
        ));
    }
}
