//! Monitors served over a real TCP socket — the paper's deployment shape
//! (monitors in each server's Dom0, coordinators elsewhere) run in
//! miniature: a `NetCoordinator` event loop listens on loopback, an agent
//! thread hosts the monitors and connects to it, and every tick, local
//! violation report and global poll crosses the wire protocol. The
//! report is compared against the in-process runner on the same traces.
//!
//! Run with: `cargo run --example remote_monitor`

use std::time::Duration;

use volley::core::task::TaskSpec;
use volley::{NetflowConfig, TaskRunner};
use volley_runtime::net::{run_agent, AgentConfig, BackoffConfig, NetAddr, NetCoordinator};
use volley_runtime::transport::TransportConfig;

/// Monitors in the task, all hosted by one agent.
const MONITORS: u32 = 4;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // One netflow ρ trace per monitor; the global threshold is the 1%
    // selectivity threshold of their sum.
    let netflow = NetflowConfig::builder().seed(21).build();
    let traces: Vec<Vec<f64>> = (0..MONITORS)
        .map(|vm| netflow.generate_vm(vm as usize, 1200).rho)
        .collect();
    let total: Vec<f64> = (0..traces[0].len())
        .map(|t| traces.iter().map(|trace| trace[t]).sum())
        .collect();
    let global = volley::selectivity_threshold(&total, 1.0)?;
    let spec = TaskSpec::builder(global)
        .monitors(MONITORS as usize)
        .error_allowance(0.02)
        .max_interval(8)
        .patience(5)
        .build()?;

    // --- Coordinator side: one event loop on a loopback listener. ---
    let coordinator = NetCoordinator::bind(spec.clone(), &NetAddr::Tcp("127.0.0.1:0".into()))?
        .with_wait_timeout(Duration::from_secs(10));
    let bound = coordinator
        .local_addr()
        .ok_or("listener has no TCP address")?;
    let addr = NetAddr::Tcp(bound.to_string());
    println!("coordinator listening on {bound}");

    // --- "Dom0" side: an agent thread hosting every monitor. ---
    let agent = AgentConfig {
        agent: 0,
        addr,
        spec: spec.clone(),
        monitors: 0..MONITORS,
        transport: TransportConfig::default(),
        backoff: BackoffConfig {
            base: Duration::from_millis(10),
            cap: Duration::from_millis(200),
            max_retries_per_outage: 100,
        },
    };
    let agent = std::thread::spawn(move || run_agent(&agent));

    let outcome = coordinator.run(&traces)?;
    let hosted = agent.join().expect("agent thread exits")?;
    let report = &outcome.report;

    let periodic = traces.len() as u64 * report.ticks;
    println!("ticks driven:      {}", report.ticks);
    println!(
        "samples over TCP:  {} ({:.1}% of periodic)",
        report.total_samples,
        100.0 * report.total_samples as f64 / periodic as f64
    );
    println!(
        "local violations:  {} ({} global polls, {} alerts)",
        report.local_violation_reports, report.polls, report.alerts
    );
    println!(
        "frames:            {} agent → coordinator, {} back",
        hosted.frames_sent, outcome.net.frames_out
    );

    let in_process = TaskRunner::new(&spec)?.run(&traces)?;
    assert_eq!(
        *report, in_process,
        "the socket run reproduces the in-process runner"
    );
    println!("report identical to the in-process runner");
    Ok(())
}
