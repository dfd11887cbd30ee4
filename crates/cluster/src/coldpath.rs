//! Cold-start paths and request-path IPC transports — the two modality axes
//! of the cold-start subsystem.
//!
//! The paper prices cold starts by exactly two modalities: a fresh registry
//! spawn and the DSCS flash image reload. Production platforms ship a third
//! — CRIU-style process-snapshot restore — and differ on how the gateway
//! hands each request to the function runtime (shared-memory ring buffer,
//! Unix domain socket, or a local HTTP hop). Both choices are quantitative:
//! whether prewarming beats fast-restore, and how much the request-path
//! transport taxes every invocation, depend on the workload's idle-gap
//! distribution. This module makes them first-class swept axes:
//!
//! * [`ColdStartPath`] — which modality a cold start pays. `flash` (the
//!   default) reproduces the historical DSCS behaviour byte for byte;
//!   `fresh` always pays the registry spawn; `snapshot` restores repeat cold
//!   starts from a local process snapshot (the *first* cold start anywhere
//!   still pays the full registry spawn — there is nothing to snapshot yet).
//! * [`IpcTransport`] — the per-request marshalling + syscall latency
//!   charged on *every* started invocation, warm and cold. `shm` (the
//!   default) is modelled as free, so default-configured runs reproduce the
//!   historical numbers exactly.

use dscs_simcore::time::SimDuration;

/// Which modality a cold start pays (see [`dscs_faas::coldstart`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ColdStartPath {
    /// Every cold start pays the full registry pull + unpack + boot, even
    /// when the image sits on the drive's flash — the no-reuse baseline.
    FreshSpawn,
    /// The historical DSCS path: in-storage platforms reload evicted images
    /// from the drive's flash; everyone else re-pulls from the registry.
    FlashReload,
    /// Repeat cold starts restore a CRIU-style process snapshot from local
    /// storage (restore stream + page-fault warmup tail); the first cold
    /// start of a function still pays the full registry spawn, since no
    /// snapshot exists until the function has run once.
    SnapshotRestore,
}

impl ColdStartPath {
    /// Every cold-start path.
    pub const ALL: [ColdStartPath; 3] = [
        ColdStartPath::FreshSpawn,
        ColdStartPath::FlashReload,
        ColdStartPath::SnapshotRestore,
    ];

    /// Machine-readable name used in reports.
    pub fn name(&self) -> &'static str {
        match self {
            ColdStartPath::FreshSpawn => "fresh",
            ColdStartPath::FlashReload => "flash",
            ColdStartPath::SnapshotRestore => "snapshot",
        }
    }

    /// Parses a report name back into the path.
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|p| p.name() == name)
    }
}

impl Default for ColdStartPath {
    /// The historical DSCS behaviour.
    fn default() -> Self {
        ColdStartPath::FlashReload
    }
}

/// How the gateway hands each request to the function runtime.
///
/// The cost is charged per *started* invocation — warm and cold alike — and
/// covers argument marshalling plus the transport's syscall/protocol round
/// trip. Calibration follows published local-IPC microbenchmarks: a mapped
/// shared-memory ring buffer costs well under a microsecond (modelled as
/// free at this simulator's resolution), a Unix domain socket round trip
/// with copy-in/copy-out lands in the tens of microseconds, and a loopback
/// HTTP hop with header parse in the hundreds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IpcTransport {
    /// Shared-memory ring buffer: zero modelled latency (sub-microsecond in
    /// practice, below the simulator's resolution of interest).
    SharedMem,
    /// Unix domain socket: two syscalls plus a kernel copy each way.
    UnixSocket,
    /// Local HTTP hop: socket cost plus request framing and header parse.
    Http,
}

impl IpcTransport {
    /// Every IPC transport.
    pub const ALL: [IpcTransport; 3] = [
        IpcTransport::SharedMem,
        IpcTransport::UnixSocket,
        IpcTransport::Http,
    ];

    /// Machine-readable name used in reports.
    pub fn name(&self) -> &'static str {
        match self {
            IpcTransport::SharedMem => "shm",
            IpcTransport::UnixSocket => "socket",
            IpcTransport::Http => "http",
        }
    }

    /// Parses a report name back into the transport.
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|t| t.name() == name)
    }

    /// The marshalling + syscall latency charged on every started
    /// invocation. Exactly zero for [`IpcTransport::SharedMem`], so
    /// default-configured runs reproduce the historical numbers byte for
    /// byte.
    pub fn per_request_cost(&self) -> SimDuration {
        match self {
            IpcTransport::SharedMem => SimDuration::ZERO,
            IpcTransport::UnixSocket => SimDuration::from_micros(25),
            IpcTransport::Http => SimDuration::from_micros(250),
        }
    }
}

impl Default for IpcTransport {
    /// The cheapest transport — and the historical (uncharged) behaviour.
    fn default() -> Self {
        IpcTransport::SharedMem
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for path in ColdStartPath::ALL {
            assert_eq!(ColdStartPath::from_name(path.name()), Some(path));
        }
        for ipc in IpcTransport::ALL {
            assert_eq!(IpcTransport::from_name(ipc.name()), Some(ipc));
        }
        assert_eq!(ColdStartPath::from_name("warp-drive"), None);
        assert_eq!(IpcTransport::from_name("pigeon"), None);
    }

    #[test]
    fn defaults_are_the_historical_behaviour() {
        assert_eq!(ColdStartPath::default(), ColdStartPath::FlashReload);
        assert_eq!(IpcTransport::default(), IpcTransport::SharedMem);
        assert_eq!(
            IpcTransport::default().per_request_cost(),
            SimDuration::ZERO,
            "the default transport must not perturb legacy numbers"
        );
    }

    #[test]
    fn transport_costs_are_strictly_ordered() {
        let shm = IpcTransport::SharedMem.per_request_cost();
        let socket = IpcTransport::UnixSocket.per_request_cost();
        let http = IpcTransport::Http.per_request_cost();
        assert!(shm < socket && socket < http);
        // Micro-scale costs: per request, never milliseconds.
        assert!(http.as_micros_f64() < 1000.0);
        assert!(socket.as_micros_f64() >= 10.0);
    }
}
