//! # commchar-apps
//!
//! The seven application kernels the paper characterizes, implemented from
//! scratch with the parallelization structure the paper describes:
//!
//! **Shared memory** (run on the execution-driven CC-NUMA simulator,
//! [`commchar_spasm`]):
//!
//! - [`sm::fft1d`] — 1-D complex radix-2 FFT; three phases (local
//!   butterflies, all-to-all exchange, local butterflies).
//! - [`sm::is`] — Integer Sort: bucket-sort ranking with a shared bucket
//!   accumulation phase (the source of its favorite-processor pattern).
//! - [`sm::cholesky`] — banded sparse Cholesky factorization with a
//!   lock-protected dynamic task queue (SPLASH-style, data-dependent).
//! - [`sm::nbody`] — gravitational N-body; per-step phases: read all
//!   positions, accumulate forces, update owned bodies.
//! - [`sm::maxflow`] — Goldberg push–relabel maximum flow with a shared
//!   work queue and per-vertex locks (Anderson–Setubal parallelization).
//!
//! **Message passing** (run on the SP2-modelled runtime, [`commchar_sp2`]):
//!
//! - [`mp::fft3d`] — NAS 3D-FFT: z-plane decomposition, all-to-all
//!   transpose, p0-rooted broadcast/reduce each iteration.
//! - [`mp::mg`] — NAS MG: V-cycle multigrid with nearest-neighbour ghost
//!   exchange and a p0-rooted residual reduction.
//!
//! Two collective-shaped workloads extend the paper's set so the suite
//! can contrast topologies and routing policies on traffic with known
//! communication shapes:
//!
//! - [`mp::allreduce`] — ring allreduce (reduce-scatter + allgather),
//!   strictly nearest-neighbour traffic around the rank ring.
//! - [`mp::halo`] — 2-D *periodic* halo exchange with a conservative
//!   diffusion stencil; the process grid is itself a torus, so wraparound
//!   network links carry its boundary exchanges natively.
//!
//! Every kernel checks its own numerical output (against closed forms or a
//! sequential reference in tests) so the traffic being characterized comes
//! from *correct* executions.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod mp;
pub mod sm;
pub mod util;

use commchar_mesh::{EngineKind, LogSink, MeshConfig, NetLog};
use commchar_trace::{CommTrace, MAX_NODES};

/// Which strategy runs the application.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AppClass {
    /// Dynamic strategy: execution-driven CC-NUMA simulation.
    SharedMemory,
    /// Static strategy: traced message-passing execution.
    MessagePassing,
}

impl AppClass {
    /// Label used in report tables.
    pub fn name(self) -> &'static str {
        match self {
            AppClass::SharedMemory => "shared-memory",
            AppClass::MessagePassing => "message-passing",
        }
    }
}

/// Problem-size scaling for tests, experiments and benches.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Smallest sizes, for unit/integration tests.
    Tiny,
    /// Default experiment sizes.
    Small,
    /// Larger runs for benchmark tables.
    Full,
}

impl Scale {
    /// Lowercase label, matching the CLI's `--scale` values.
    pub fn name(self) -> &'static str {
        match self {
            Scale::Tiny => "tiny",
            Scale::Small => "small",
            Scale::Full => "full",
        }
    }
}

/// The uniform output of one application run, with the network sink `S`
/// of a dynamic-strategy run.
#[derive(Debug)]
pub struct AppOutput<S = NetLog> {
    /// Application name (lowercase, as in the paper's tables).
    pub name: &'static str,
    /// Strategy class.
    pub class: AppClass,
    /// Processor count used.
    pub nprocs: usize,
    /// The communication trace.
    pub trace: CommTrace,
    /// The network's sink, filled in the execution loop (dynamic strategy
    /// only; static traces are replayed through the mesh separately).
    pub netlog: Option<S>,
    /// Simulated execution time in ticks (cycles or SP2 ticks).
    pub exec_ticks: u64,
    /// Application-specific correctness figure (e.g. residual, checksum).
    pub check: f64,
}

/// Why an application cannot run at a requested processor count — the
/// typed form of each kernel's precondition (see [`AppId::check`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AppError {
    /// The processor count is 0 or above [`MAX_NODES`].
    ProcsOutOfRange {
        /// The requested count.
        procs: usize,
    },
    /// The kernel needs a power-of-two processor count.
    NotPowerOfTwo {
        /// The kernel.
        app: &'static str,
        /// The requested count.
        procs: usize,
    },
    /// The kernel needs at least `min` processors.
    TooFewProcs {
        /// The kernel.
        app: &'static str,
        /// The requested count.
        procs: usize,
        /// The smallest count it runs on.
        min: usize,
    },
    /// The kernel splits `size` units of work (`what`) evenly over its
    /// processors, and `procs` does not divide them.
    Indivisible {
        /// The kernel.
        app: &'static str,
        /// The requested count.
        procs: usize,
        /// The units being split (keys, bodies, z-planes, …).
        what: &'static str,
        /// How many there are at this problem size.
        size: usize,
    },
}

impl AppError {
    /// `Ok` when `procs` is a power of two.
    pub(crate) fn power_of_two(app: &'static str, procs: usize) -> Result<(), AppError> {
        if procs.is_power_of_two() {
            Ok(())
        } else {
            Err(AppError::NotPowerOfTwo { app, procs })
        }
    }

    /// `Ok` when `procs` is at least `min`.
    pub(crate) fn at_least(app: &'static str, procs: usize, min: usize) -> Result<(), AppError> {
        if procs >= min {
            Ok(())
        } else {
            Err(AppError::TooFewProcs { app, procs, min })
        }
    }

    /// `Ok` when `procs` divides `size` units of `what`.
    pub(crate) fn divides(
        app: &'static str,
        procs: usize,
        what: &'static str,
        size: usize,
    ) -> Result<(), AppError> {
        if size > 0 && size.is_multiple_of(procs) {
            Ok(())
        } else {
            Err(AppError::Indivisible { app, procs, what, size })
        }
    }
}

impl std::fmt::Display for AppError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AppError::ProcsOutOfRange { procs } => {
                write!(f, "processor count {procs} is out of range (1..={MAX_NODES})")
            }
            AppError::NotPowerOfTwo { app, procs } => {
                write!(f, "{app} needs a power-of-two processor count, got {procs}")
            }
            AppError::TooFewProcs { app, procs, min } => {
                write!(f, "{app} needs at least {min} processors, got {procs}")
            }
            AppError::Indivisible { app, procs, what, size } => {
                write!(f, "{app} cannot split {size} {what} evenly over {procs} processors")
            }
        }
    }
}

impl std::error::Error for AppError {}

/// Identifier for each of the seven applications.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum AppId {
    /// 1-D FFT (shared memory).
    Fft1d,
    /// Integer Sort (shared memory).
    Is,
    /// Sparse Cholesky factorization (shared memory).
    Cholesky,
    /// N-body (shared memory).
    Nbody,
    /// Goldberg maximum flow (shared memory).
    Maxflow,
    /// NAS 3D-FFT (message passing).
    Fft3d,
    /// NAS MG multigrid (message passing).
    Mg,
    /// Ring allreduce collective (message passing).
    Allreduce,
    /// 2-D periodic halo exchange (message passing).
    Halo,
}

impl AppId {
    /// All applications: the paper's seven in presentation order, then
    /// the collective-shaped additions.
    pub fn all() -> &'static [AppId] {
        &[
            AppId::Fft1d,
            AppId::Is,
            AppId::Cholesky,
            AppId::Nbody,
            AppId::Maxflow,
            AppId::Fft3d,
            AppId::Mg,
            AppId::Allreduce,
            AppId::Halo,
        ]
    }

    /// Lowercase name as used in the tables.
    pub fn name(self) -> &'static str {
        match self {
            AppId::Fft1d => "1d-fft",
            AppId::Is => "is",
            AppId::Cholesky => "cholesky",
            AppId::Nbody => "nbody",
            AppId::Maxflow => "maxflow",
            AppId::Fft3d => "3d-fft",
            AppId::Mg => "mg",
            AppId::Allreduce => "allreduce",
            AppId::Halo => "halo",
        }
    }

    /// Strategy class.
    pub fn class(self) -> AppClass {
        match self {
            AppId::Fft3d | AppId::Mg | AppId::Allreduce | AppId::Halo => AppClass::MessagePassing,
            _ => AppClass::SharedMemory,
        }
    }

    /// Checks that the application can run on `procs` processors at
    /// `scale`, before anything runs: the count must lie in
    /// `1..=`[`MAX_NODES`], and each kernel adds its own precondition — the
    /// same function its run path asserts, so no precondition is written
    /// twice.
    ///
    /// # Errors
    ///
    /// The [`AppError`] naming the first precondition `procs` violates.
    pub fn check(self, procs: usize, scale: Scale) -> Result<(), AppError> {
        if procs == 0 || procs > MAX_NODES {
            return Err(AppError::ProcsOutOfRange { procs });
        }
        match self {
            AppId::Fft1d => sm::fft1d::check(procs, sm::fft1d::points(scale)),
            AppId::Is => sm::is::check(procs, sm::is::sizes(scale).0),
            AppId::Cholesky | AppId::Maxflow => Ok(()),
            AppId::Nbody => sm::nbody::check(procs, sm::nbody::sizes(scale).0),
            AppId::Fft3d => mp::fft3d::check(procs, mp::fft3d::grid(scale)),
            AppId::Mg => mp::mg::check(procs, mp::mg::grid(scale, procs)),
            AppId::Allreduce => mp::allreduce::check(procs),
            AppId::Halo => mp::halo::check(procs),
        }
    }

    /// Runs the application on `nprocs` processors at `scale`, on the
    /// network `mesh` (topology, routing policy and virtual-channel
    /// budget) with the closed-loop `engine`, sharding the
    /// execution-driven simulator over `sim_jobs` workers (1 = serial,
    /// 0 = one per hardware thread; never changes results), and keeping
    /// every message's network record in a [`NetLog`]. See
    /// [`run_into`](AppId::run_into) for the parameters.
    ///
    /// # Panics
    ///
    /// As [`run_into`](AppId::run_into).
    pub fn run_net(
        self,
        nprocs: usize,
        scale: Scale,
        engine: EngineKind,
        sim_jobs: usize,
        mesh: MeshConfig,
    ) -> AppOutput {
        self.run_into(nprocs, scale, engine, sim_jobs, mesh, NetLog::new())
    }

    /// [`run_net`](AppId::run_net), delivering each network message into
    /// `sink` instead of a [`NetLog`].
    ///
    /// Shared-memory kernels (dynamic strategy) run with `engine` and
    /// `mesh` inside the execution-driven simulation, which they steer,
    /// and hand `sink` back in [`AppOutput::netlog`]. Message-passing
    /// kernels (static strategy) acquire their traces network-free — the
    /// network applies when the trace is causally replayed — so `engine`,
    /// `sim_jobs`, `mesh` and `sink` are unused there and `netlog` is
    /// `None`.
    ///
    /// # Panics
    ///
    /// Panics when [`AppId::check`] fails, or when `mesh` has fewer than
    /// `nprocs` nodes.
    pub fn run_into<S: LogSink + Send>(
        self,
        nprocs: usize,
        scale: Scale,
        engine: EngineKind,
        sim_jobs: usize,
        mesh: MeshConfig,
        sink: S,
    ) -> AppOutput<S> {
        let cfg = || {
            commchar_spasm::MachineConfig::new(nprocs)
                .with_mesh(mesh)
                .with_engine(engine)
                .with_sim_jobs(sim_jobs)
        };
        let traced = match self {
            AppId::Fft1d => return sm::fft1d::run_cfg(cfg(), scale, sink),
            AppId::Is => return sm::is::run_cfg(cfg(), scale, sink),
            AppId::Cholesky => return sm::cholesky::run_cfg(cfg(), scale, sink),
            AppId::Nbody => return sm::nbody::run_cfg(cfg(), scale, sink),
            AppId::Maxflow => return sm::maxflow::run_cfg(cfg(), scale, sink),
            AppId::Fft3d => mp::fft3d::run(nprocs, scale),
            AppId::Mg => mp::mg::run(nprocs, scale),
            AppId::Allreduce => mp::allreduce::run(nprocs, scale),
            AppId::Halo => mp::halo::run(nprocs, scale),
        };
        let AppOutput { name, class, nprocs, trace, exec_ticks, check, .. } = traced;
        AppOutput { name, class, nprocs, trace, netlog: None, exec_ticks, check }
    }
}

impl std::fmt::Display for AppId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}
