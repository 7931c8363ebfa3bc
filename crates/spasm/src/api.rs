//! The application-facing API: shared regions and the per-processor
//! context whose operations trap into the simulation engine.

use std::future::Future;
use std::pin::Pin;
use std::sync::{Arc, Mutex};
use std::task::{Context, Poll};

/// A handle to a contiguous shared-memory region of 64-bit words.
///
/// Regions are allocated during setup (see [`Setup::alloc`]) and handed
/// to every processor's body; accesses go through [`Ctx`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Region {
    pub(crate) base: usize,
    pub(crate) len: usize,
}

impl Region {
    /// Number of words in the region.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the region is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// Machine handle available during the setup phase, before the processors
/// start: allocate shared regions and write initial contents (without
/// generating coherence traffic, like a program's initialized data).
#[derive(Debug)]
pub struct Setup {
    pub(crate) mem: Vec<u64>,
    pub(crate) nprocs: usize,
}

impl Setup {
    /// Number of processors in the machine.
    pub fn nprocs(&self) -> usize {
        self.nprocs
    }

    /// Allocates a zero-initialized shared region of `words` words.
    pub fn alloc(&mut self, words: usize) -> Region {
        let base = self.mem.len();
        self.mem.resize(base + words, 0);
        Region { base, len: words }
    }

    /// Writes an initial word value (no coherence traffic).
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of bounds for the region.
    pub fn init(&mut self, region: Region, idx: usize, value: u64) {
        assert!(idx < region.len, "init index {idx} out of bounds");
        self.mem[region.base + idx] = value;
    }

    /// Writes an initial f64 value (bit-cast into the word).
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of bounds for the region.
    pub fn init_f64(&mut self, region: Region, idx: usize, value: f64) {
        self.init(region, idx, value.to_bits());
    }
}

/// Requests a processor's body can make of the engine.
#[derive(Clone, Copy, Debug)]
pub(crate) enum ProcRequest {
    Read { addr: usize },
    Write { addr: usize, value: u64 },
    Barrier { id: u32 },
    Lock { id: u32 },
    Unlock { id: u32 },
}

#[derive(Clone, Copy, Debug)]
pub(crate) struct Reply {
    pub time: u64,
    pub value: u64,
}

/// The hand-off point between one processor's body and the shard that
/// polls it: a trap leaves its request here and suspends; the shard takes
/// the request, simulates it, and leaves the reply before polling the
/// body again.
#[derive(Debug, Default)]
pub(crate) struct Slot {
    /// The trapped request, with the local computation since the
    /// previous trap.
    pub request: Option<(u64, ProcRequest)>,
    pub reply: Option<Reply>,
    /// Local computation after the last trap, recorded when the
    /// processor's [`Ctx`] is dropped.
    pub tail: u64,
}

/// Suspends its task exactly once: the first poll returns `Pending`, the
/// next (made by the shard once the reply is in the slot) `Ready`.
struct Suspend(bool);

impl Future for Suspend {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, _: &mut Context<'_>) -> Poll<()> {
        if self.0 {
            Poll::Ready(())
        } else {
            self.0 = true;
            Poll::Pending
        }
    }
}

/// The per-processor execution context.
///
/// Every shared access or synchronization call is an `async fn` that
/// suspends the processor's body until the simulation engine has carried
/// the operation through the cache, directory protocol and network — this
/// is what makes the simulation execution-driven: the application's
/// control flow sees simulated latencies. A body may await only these
/// operations; awaiting any other future that suspends is a misuse the
/// engine reports with a panic.
#[derive(Debug)]
pub struct Ctx {
    proc: usize,
    nprocs: usize,
    elapsed: u64,
    now: u64,
    slot: Arc<Mutex<Slot>>,
}

impl Ctx {
    pub(crate) fn new(proc: usize, nprocs: usize, slot: Arc<Mutex<Slot>>) -> Self {
        Ctx { proc, nprocs, elapsed: 0, now: 0, slot }
    }

    /// This processor's id, `0..nprocs`.
    pub fn proc_id(&self) -> usize {
        self.proc
    }

    /// Number of processors.
    pub fn nprocs(&self) -> usize {
        self.nprocs
    }

    /// Current simulated time in cycles (as of the last trap).
    pub fn now(&self) -> u64 {
        self.now + self.elapsed
    }

    /// Accounts `cycles` of local computation.
    pub fn compute(&mut self, cycles: u64) {
        self.elapsed += cycles;
    }

    async fn rpc(&mut self, req: ProcRequest) -> Reply {
        self.slot.lock().unwrap_or_else(|e| e.into_inner()).request = Some((self.elapsed, req));
        self.elapsed = 0;
        Suspend(false).await;
        let reply = self
            .slot
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .reply
            .take()
            .expect("spasm trap resumed without a reply");
        self.now = reply.time;
        reply
    }

    /// Reads a shared word (simulated LOAD).
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of bounds for the region.
    pub async fn read(&mut self, region: Region, idx: usize) -> u64 {
        assert!(idx < region.len, "read index {idx} out of bounds");
        self.elapsed += 1; // issue cost
        self.rpc(ProcRequest::Read { addr: region.base + idx }).await.value
    }

    /// Writes a shared word (simulated STORE).
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of bounds for the region.
    pub async fn write(&mut self, region: Region, idx: usize, value: u64) {
        assert!(idx < region.len, "write index {idx} out of bounds");
        self.elapsed += 1;
        self.rpc(ProcRequest::Write { addr: region.base + idx, value }).await;
    }

    /// Reads a shared f64 (bit-cast from the word).
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of bounds for the region.
    pub async fn read_f64(&mut self, region: Region, idx: usize) -> f64 {
        f64::from_bits(self.read(region, idx).await)
    }

    /// Writes a shared f64 (bit-cast into the word).
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of bounds for the region.
    pub async fn write_f64(&mut self, region: Region, idx: usize, value: f64) {
        self.write(region, idx, value.to_bits()).await;
    }

    /// Waits at barrier `id` until all processors arrive.
    pub async fn barrier(&mut self, id: u32) {
        self.rpc(ProcRequest::Barrier { id }).await;
    }

    /// Acquires lock `id` (FIFO-granted at the lock's home node).
    pub async fn lock(&mut self, id: u32) {
        self.rpc(ProcRequest::Lock { id }).await;
    }

    /// Releases lock `id`.
    ///
    /// # Panics
    ///
    /// The engine panics if the caller does not hold the lock.
    pub async fn unlock(&mut self, id: u32) {
        self.rpc(ProcRequest::Unlock { id }).await;
    }
}

impl Drop for Ctx {
    /// Hands the computation after the last trap to the shard, which
    /// counts it into the processor's finishing time.
    fn drop(&mut self) {
        self.slot.lock().unwrap_or_else(|e| e.into_inner()).tail = self.elapsed;
    }
}
