//! Triggered postmortems: the server-side owner of the flight recorder.
//!
//! A [`TraceSet`] bundles one [`telemetry::TraceBuf`] ring per decode
//! shard — all created on a single epoch, so every shard's events lie on
//! one timeline — with the postmortem trigger latch. Hot paths record
//! into their shard's ring wait-free; anomaly detectors (a shed, a
//! deadline miss, an escalation storm, an SPSC ring high-water mark)
//! call [`TraceSet::trigger`], and the *first* trigger freezes the
//! moment by snapshotting every ring into a timestamped dump file
//! ([`telemetry::render_dump`] format, convertible to Perfetto JSON by
//! `repro trace`). Later triggers only bump the counter: the interesting
//! state is what led up to the first anomaly, and re-dumping on every
//! shed of a flood would turn the postmortem into the overload.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use telemetry::{TraceBuf, TraceDump};

/// One flight-recorder ring per shard plus the dump-once postmortem
/// latch. Shared by the server, its shards, and its session routers.
#[derive(Debug)]
pub struct TraceSet {
    bufs: Vec<Arc<TraceBuf>>,
    /// Dump-file prefix — dump files are the one route a trace leaves
    /// the process by. `None` writes none: triggers still count, and
    /// in-process readers still [`TraceSet::collect`] the rings.
    prefix: Option<String>,
    /// Latched by the first trigger: the dump has been written.
    fired: AtomicBool,
    /// Lifetime trigger count, including post-dump triggers.
    triggers: AtomicU64,
    /// Path of the postmortem dump, once one has been written.
    dump_path: Mutex<Option<String>>,
}

impl TraceSet {
    /// Builds `shards` rings of `capacity` events each, all on one
    /// epoch taken now. `prefix` names the postmortem dump file
    /// (`{prefix}-{reason}-{unix_millis}.trace`); `None` disables the
    /// file write.
    pub fn new(shards: usize, capacity: usize, prefix: Option<String>) -> Self {
        let epoch = telemetry::now();
        TraceSet {
            bufs: (0..shards)
                .map(|_| Arc::new(TraceBuf::with_epoch(capacity, epoch)))
                .collect(),
            prefix,
            fired: AtomicBool::new(false),
            triggers: AtomicU64::new(0),
            dump_path: Mutex::new(None),
        }
    }

    /// The ring of shard `shard`.
    pub fn buf(&self, shard: usize) -> &Arc<TraceBuf> {
        &self.bufs[shard]
    }

    /// Every shard's ring, in shard order.
    pub fn bufs(&self) -> &[Arc<TraceBuf>] {
        &self.bufs
    }

    /// Snapshots every ring under `reason` without freezing anything —
    /// what postmortem and end-of-run dump files hold, and how
    /// in-process readers (tests, `repro serve`) see the rings.
    pub fn collect(&self, reason: &str) -> TraceDump {
        TraceDump::collect(reason, &self.bufs)
    }

    /// Reports an anomaly. The first trigger (across all threads)
    /// freezes a postmortem: every ring is snapshotted and written to
    /// `{prefix}-{reason}-{unix_millis}.trace`. Every trigger bumps
    /// [`TraceSet::triggers`]. Returns the dump path when this call
    /// wrote one.
    pub fn trigger(&self, reason: &str) -> Option<String> {
        self.triggers.fetch_add(1, Ordering::Relaxed);
        if self.fired.swap(true, Ordering::SeqCst) {
            return None;
        }
        let prefix = self.prefix.as_ref()?;
        let millis = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_millis())
            .unwrap_or(0);
        let path = format!("{prefix}-{reason}-{millis}.trace");
        let text = telemetry::render_dump(&self.collect(reason));
        if std::fs::write(&path, text).is_err() {
            return None;
        }
        *self.dump_path.lock().expect("dump path poisoned") = Some(path.clone());
        Some(path)
    }

    /// Lifetime trigger count.
    pub fn triggers(&self) -> u64 {
        self.triggers.load(Ordering::Relaxed)
    }

    /// Whether the dump-once postmortem has fired.
    pub fn fired(&self) -> bool {
        self.fired.load(Ordering::SeqCst)
    }

    /// Path of the written postmortem dump, if any.
    pub fn dump_path(&self) -> Option<String> {
        self.dump_path.lock().expect("dump path poisoned").clone()
    }

    /// Lifetime events recorded across every shard's ring.
    pub fn events_recorded(&self) -> u64 {
        self.bufs.iter().map(|b| b.recorded()).sum()
    }

    /// Lifetime events overwritten across every shard's ring.
    pub fn events_dropped(&self) -> u64 {
        self.bufs.iter().map(|b| b.dropped()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use telemetry::TraceKind;

    #[test]
    fn first_trigger_dumps_once_and_later_triggers_only_count() {
        let dir = std::env::temp_dir().join(format!("pm-trace-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let prefix = dir.join("post").to_string_lossy().into_owned();
        let set = TraceSet::new(2, 16, Some(prefix));
        set.buf(0).record(3, 7, 0, TraceKind::Shed, 2);
        set.buf(1).record(4, 1, 0, TraceKind::DeadlineMiss, 950);
        let path = set.trigger("shed").expect("first trigger writes");
        assert!(set.fired());
        assert_eq!(set.dump_path().as_deref(), Some(path.as_str()));
        assert!(set.trigger("shed").is_none(), "dump-once");
        assert_eq!(set.triggers(), 2);
        let text = std::fs::read_to_string(&path).unwrap();
        let dump = telemetry::parse_dump(&text).unwrap();
        assert_eq!(dump.reason, "shed");
        assert_eq!(dump.shards.len(), 2);
        assert_eq!(dump.shards[0].events[0].kind, TraceKind::Shed);
        assert_eq!(dump.shards[1].events[0].arg, 950);
        std::fs::remove_file(&path).unwrap();
        assert_eq!(set.events_recorded(), 2);
        assert_eq!(set.events_dropped(), 0);
    }

    #[test]
    fn no_prefix_latches_without_writing() {
        let set = TraceSet::new(1, 4, None);
        assert!(set.trigger("deadline-miss").is_none());
        assert!(set.fired());
        assert_eq!(set.triggers(), 1);
        assert_eq!(set.dump_path(), None);
        // The rings are still readable in process.
        set.buf(0).record(0, 0, 0, TraceKind::Park, 0);
        assert_eq!(set.collect("scrape").shards[0].events.len(), 1);
    }
}
