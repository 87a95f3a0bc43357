//! A counting and timing [`StorageBackend`] wrapper.
//!
//! It forwards every call unchanged to the backend it wraps and counts
//! calls, bytes and time in a shared [`Ledger`]. The benchmark reads
//! the ledger before and after each call into a layer, so store time
//! can be taken out of that layer's span without a span per WAL append
//! (a durable epoch makes about a thousand). It also notes the size of
//! every snapshot the store writes, and on request keeps a copy of the
//! next one.

use msa_stream::{StorageBackend, StoreError};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

/// Call, byte and time counts of one wrapped backend.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    /// `write_atomic` calls.
    pub atomic_writes: u64,
    /// `append` calls.
    pub appends: u64,
    /// `sync` calls.
    pub syncs: u64,
    /// Every other call (`read`, `list`, `remove`, `truncate`, ...).
    pub other_calls: u64,
    /// Bytes passed to `write_atomic` and `append`.
    pub bytes_written: u64,
    /// Wall time spent inside the wrapped backend.
    pub busy_ns: u64,
    /// Wall time spent copying a snapshot the benchmark asked for: the
    /// benchmark's own work, inside no layer.
    pub capture_ns: u64,
    /// Size of every snapshot written, in write order.
    pub snapshot_bytes: Vec<u64>,
}

#[derive(Debug, Default)]
struct State {
    counts: Counts,
    capture: bool,
    captured: Option<Vec<u8>>,
}

/// The shared side of a [`CountingBackend`], readable while the store
/// owns the backend.
#[derive(Debug, Default)]
pub struct Ledger {
    state: Mutex<State>,
}

impl Ledger {
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state
            .lock()
            .expect("the ledger is only locked for plain field updates, which cannot panic")
    }

    /// The counts so far.
    pub fn counts(&self) -> Counts {
        self.lock().counts.clone()
    }

    /// Time inside the wrapped backend plus time copying requested
    /// snapshots so far, in nanoseconds: what a span's self time leaves
    /// out.
    pub fn outside_ns(&self) -> u64 {
        let state = self.lock();
        state.counts.busy_ns + state.counts.capture_ns
    }

    /// Keep a copy of the next snapshot written.
    pub fn capture_next_snapshot(&self) {
        self.lock().capture = true;
    }

    /// The copy asked for with [`Ledger::capture_next_snapshot`], once
    /// it was written.
    pub fn take_captured(&self) -> Option<Vec<u8>> {
        self.lock().captured.take()
    }
}

/// Wraps `B`, counting into a shared [`Ledger`].
#[derive(Debug)]
pub struct CountingBackend<B> {
    inner: B,
    ledger: Arc<Ledger>,
}

fn ns_since(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

impl<B: StorageBackend> CountingBackend<B> {
    /// Wraps `inner`; the returned ledger stays readable after the
    /// store takes ownership of the backend.
    pub fn new(inner: B) -> (CountingBackend<B>, Arc<Ledger>) {
        let ledger = Arc::new(Ledger::default());
        let backend = CountingBackend {
            inner,
            ledger: Arc::clone(&ledger),
        };
        (backend, ledger)
    }

    fn call<R>(
        &mut self,
        counter: fn(&mut Counts) -> &mut u64,
        bytes: usize,
        f: impl FnOnce(&mut B) -> R,
    ) -> R {
        let t = Instant::now();
        let out = f(&mut self.inner);
        let ns = ns_since(t);
        let mut state = self.ledger.lock();
        *counter(&mut state.counts) += 1;
        state.counts.bytes_written += bytes as u64;
        state.counts.busy_ns += ns;
        out
    }
}

impl<B: StorageBackend> StorageBackend for CountingBackend<B> {
    fn write_atomic(&mut self, path: &str, bytes: &[u8]) -> Result<(), StoreError> {
        let out = self.call(
            |c| &mut c.atomic_writes,
            bytes.len(),
            |b| b.write_atomic(path, bytes),
        );
        if path.ends_with("snapshot.bin") {
            let t = Instant::now();
            let mut state = self.ledger.lock();
            state.counts.snapshot_bytes.push(bytes.len() as u64);
            if std::mem::take(&mut state.capture) {
                state.captured = Some(bytes.to_vec());
            }
            state.counts.capture_ns += ns_since(t);
        }
        out
    }

    fn append(&mut self, path: &str, bytes: &[u8]) -> Result<(), StoreError> {
        self.call(|c| &mut c.appends, bytes.len(), |b| b.append(path, bytes))
    }

    fn sync(&mut self, path: &str) -> Result<(), StoreError> {
        self.call(|c| &mut c.syncs, 0, |b| b.sync(path))
    }

    fn read(&mut self, path: &str) -> Result<Vec<u8>, StoreError> {
        self.call(|c| &mut c.other_calls, 0, |b| b.read(path))
    }

    fn list(&mut self, dir: &str) -> Result<Vec<String>, StoreError> {
        self.call(|c| &mut c.other_calls, 0, |b| b.list(dir))
    }

    fn remove(&mut self, path: &str) -> Result<(), StoreError> {
        self.call(|c| &mut c.other_calls, 0, |b| b.remove(path))
    }

    fn truncate(&mut self, path: &str, len: usize) -> Result<(), StoreError> {
        self.call(|c| &mut c.other_calls, 0, |b| b.truncate(path, len))
    }

    fn corrupt(&mut self, path: &str, index: usize) -> Result<(), StoreError> {
        self.call(|c| &mut c.other_calls, 0, |b| b.corrupt(path, index))
    }

    fn power_cut(&mut self) {
        self.call(|c| &mut c.other_calls, 0, |b| b.power_cut())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msa_gigascope::{CheckpointStore, CostParams, ExecutorConfig, PhysicalPlan, StoreHandle};
    use msa_stream::{AttrSet, SimBackend, UniformStreamBuilder};

    fn durable_run(handle: &StoreHandle) {
        let plan = PhysicalPlan::flat([(AttrSet::parse("A").unwrap(), 64)]);
        let mut cfg = ExecutorConfig::new(plan, CostParams::paper(), 100_000, 7);
        cfg.durable = true;
        let stream = UniformStreamBuilder::new(2, 50)
            .records(5_000)
            .duration_secs(1.0)
            .seed(3)
            .build();
        let mut ex = cfg.build().with_store(handle.clone());
        ex.run(&stream.records);
        assert!(!ex.store_degraded());
        // Dropped without `finish`: the last epoch stays open, so the
        // WAL holds entries past the newest commit.
    }

    fn files(h: &StoreHandle) -> Vec<String> {
        let list = |dir: &str| h.with_backend(|be| be.list(dir)).unwrap();
        let mut out = Vec::new();
        for name in list("") {
            let kids = list(&name);
            if kids.is_empty() {
                out.push(name);
            } else {
                out.extend(kids.iter().map(|k| format!("{name}/{k}")));
            }
        }
        out
    }

    #[test]
    fn wrapper_passes_everything_through_unchanged() {
        let bare = StoreHandle::new(CheckpointStore::open(Box::new(SimBackend::new())).unwrap());
        let (wrapped, ledger) = CountingBackend::new(SimBackend::new());
        let counted = StoreHandle::new(CheckpointStore::open(Box::new(wrapped)).unwrap());
        durable_run(&bare);
        durable_run(&counted);

        assert_eq!(bare.stats(), counted.stats());
        let a = bare
            .recover_artifacts()
            .unwrap()
            .expect("bare store recovers");
        let b = counted
            .recover_artifacts()
            .unwrap()
            .expect("wrapped store recovers");
        assert_eq!(a.generation, b.generation);
        assert_eq!(a.snapshot.encode(), b.snapshot.encode());
        assert_eq!(a.log.encode(), b.log.encode());
        let names = files(&bare);
        assert_eq!(names, files(&counted));
        assert!(
            names.iter().any(|f| f.ends_with("snapshot.bin")),
            "{names:?}"
        );
        for path in names {
            let read = |h: &StoreHandle| h.with_backend(|be| be.read(&path)).unwrap();
            assert_eq!(read(&bare), read(&counted), "{path}");
        }

        let counts = ledger.counts();
        let stats = counted.stats();
        assert!(
            counts.atomic_writes >= 2 * stats.commits,
            "snapshot + manifest per commit"
        );
        assert_eq!(counts.snapshot_bytes.len() as u64, stats.commits);
        assert_eq!(counts.appends, stats.wal_appends);
        assert!(counts.syncs > 0 && counts.other_calls > 0);
        assert!(counts.bytes_written > 0 && counts.busy_ns > 0);
    }

    #[test]
    fn captures_only_the_requested_snapshot() {
        let (wrapped, ledger) = CountingBackend::new(SimBackend::new());
        let handle = StoreHandle::new(CheckpointStore::open(Box::new(wrapped)).unwrap());
        assert_eq!(ledger.take_captured(), None);
        ledger.capture_next_snapshot();
        durable_run(&handle);
        let copy = ledger.take_captured().expect("a snapshot was written");
        let first = *ledger.counts().snapshot_bytes.first().unwrap();
        assert_eq!(copy.len() as u64, first);
        assert_eq!(ledger.take_captured(), None);
    }
}
