//! Channel endpoints for monitor inboxes.
//!
//! A [`MonitorLink`] is a cloneable handle the coordinator's channel
//! driver sends a monitor's frames through. It either feeds an inbox
//! channel directly or is *tagged* ([`MonitorLink::tagged`]): then it
//! feeds a shared `(monitor, frame)` channel, which is how the networked
//! coordinator ([`crate::net`]) funnels every monitor's outbound traffic
//! into one socket event loop without the coordinator knowing the
//! transport changed.

use bytes::Bytes;
use crossbeam::channel::Sender;

/// Where a link's frames go: straight into an actor inbox, or tagged with
/// the monitor index into a shared multiplexer channel.
#[derive(Debug, Clone)]
enum LinkTarget {
    Channel(Sender<Bytes>),
    Tagged {
        monitor: u32,
        out: Sender<(u32, Bytes)>,
    },
}

/// A cloneable handle to one monitor's inbox.
#[derive(Debug, Clone)]
pub struct MonitorLink {
    target: LinkTarget,
}

impl MonitorLink {
    /// Wraps a monitor-inbox sender.
    pub fn new(sender: Sender<Bytes>) -> Self {
        MonitorLink {
            target: LinkTarget::Channel(sender),
        }
    }

    /// Wraps a shared multiplexer sender: every frame sent through this
    /// link arrives as `(monitor, frame)` on `out`, preserving per-link
    /// FIFO order. Used by the socket transport, where one event loop
    /// serves every monitor connection.
    pub fn tagged(monitor: u32, out: Sender<(u32, Bytes)>) -> Self {
        MonitorLink {
            target: LinkTarget::Tagged { monitor, out },
        }
    }

    /// Sends one frame; `false` means the monitor's inbox is gone
    /// (its thread exited and the receiver was dropped).
    pub fn send(&self, frame: Bytes) -> bool {
        match &self.target {
            LinkTarget::Channel(sender) => sender.send(frame).is_ok(),
            LinkTarget::Tagged { monitor, out } => out.send((*monitor, frame)).is_ok(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossbeam::channel::unbounded;

    #[test]
    fn send_reaches_receiver() {
        let (tx, rx) = unbounded::<Bytes>();
        let link = MonitorLink::new(tx);
        assert!(link.send(Bytes::from_static(b"a")));
        assert_eq!(&*rx.recv().unwrap(), b"a");
    }

    #[test]
    fn send_reports_dead_inbox() {
        let (tx, rx) = unbounded::<Bytes>();
        let link = MonitorLink::new(tx);
        drop(rx);
        assert!(!link.send(Bytes::from_static(b"c")));
    }

    #[test]
    fn tagged_link_stamps_the_monitor_index() {
        let (tx, rx) = unbounded::<(u32, Bytes)>();
        let a = MonitorLink::tagged(3, tx.clone());
        let b = MonitorLink::tagged(7, tx);
        assert!(a.send(Bytes::from_static(b"x")));
        assert!(b.send(Bytes::from_static(b"y")));
        assert_eq!(rx.recv().unwrap(), (3, Bytes::from_static(b"x")));
        assert_eq!(rx.recv().unwrap(), (7, Bytes::from_static(b"y")));
    }

    #[test]
    fn tagged_link_reports_dead_multiplexer() {
        let (tx, rx) = unbounded::<(u32, Bytes)>();
        let link = MonitorLink::tagged(0, tx);
        drop(rx);
        assert!(!link.send(Bytes::from_static(b"z")));
    }
}
