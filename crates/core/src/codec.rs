//! Hand-rolled, versioned binary codec for checkpoint images.
//!
//! The vendored `serde` stub cannot derive, so checkpoints use an
//! explicit little-endian wire format instead: every value implements
//! [`Snapshot`], writing itself into an [`Enc`] and reading itself back
//! from a [`Dec`]. The format is deliberately simple — fixed-width
//! little-endian integers, `u64` length prefixes for sequences, one tag
//! byte for options and enums — so that the encoding of a given value is
//! byte-deterministic: encoding the same state twice yields identical
//! bytes, which is what the replay auditor's per-component hashes (see
//! [`crate::replay`]) rely on.
//!
//! Versioning happens at the container level: [`crate::checkpoint`]
//! frames a payload with a magic number, a format version, a
//! configuration fingerprint and a checksum. The codec itself is
//! version-unaware.

use std::fmt;

use refsim_cpu::cache::{CacheStats, SavedCache, SavedLine};
use refsim_cpu::core::SavedExecContext;
use refsim_cpu::hierarchy::{HierStats, SavedHierarchy};
use refsim_dram::backend::SavedBackend;
use refsim_dram::bank::{BankPhase, SavedBank, SavedRank};
use refsim_dram::controller::{SavedController, SavedEntry, SavedPendingRefresh};
use refsim_dram::geometry::BankId;
use refsim_dram::integrity::{RetentionViolation, SavedBankTrack, SavedTracker, ViolationKind};
use refsim_dram::refresh::RefreshOp;
use refsim_dram::request::{Completion, ReqId};
use refsim_dram::shadow::{SavedShadow, SavedShadowBank, SavedShadowRank};
use refsim_dram::stats::ControllerStats;
use refsim_dram::time::Ps;
use refsim_os::bank_alloc::{BankAllocStats, SavedBankAlloc};
use refsim_os::buddy::SavedBuddy;
use refsim_os::cfs::SavedRunqueue;
use refsim_os::sched::{SavedScheduler, SchedStats};
use refsim_os::task::TaskId;
use refsim_os::vm::SavedAddressSpace;
use refsim_workloads::pattern::SavedPattern;
use refsim_workloads::profiles::SavedWorkload;

use crate::metrics::{RunMetrics, TaskMetrics};

/// Decode failure: the byte stream does not describe a valid value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The stream ended before the value was complete.
    Truncated {
        /// Bytes the decoder needed.
        need: usize,
        /// Bytes that remained.
        have: usize,
    },
    /// A tag or length field held an impossible value.
    Invalid(String),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated { need, have } => {
                write!(f, "truncated stream: needed {need} bytes, had {have}")
            }
            CodecError::Invalid(why) => write!(f, "invalid encoding: {why}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Staging-buffer size of a hashing [`Enc`]: small writes collect here
/// and fold into the hasher in one [`Fnv64::update`]; a `put_bytes` of at
/// least this many bytes skips the buffer.
const STAGE_BYTES: usize = 4096;

/// Byte-stream encoder (little-endian, append-only).
///
/// [`Enc::new`] collects the bytes; [`Enc::hasher`] streams them into an
/// FNV-1a digest instead, so hashing a large value costs no copy of its
/// encoding.
#[derive(Debug)]
pub struct Enc {
    buf: Vec<u8>,
    /// FNV-1a state of the bytes already folded out of `buf`.
    folded: Fnv64,
    /// `buf` length at which it is folded into `folded`: `STAGE_BYTES`
    /// for a hashing sink, `usize::MAX` for a byte encoder, which keeps
    /// every byte.
    stage: usize,
}

impl Default for Enc {
    fn default() -> Self {
        Enc::new()
    }
}

impl Enc {
    /// A fresh, empty encoder.
    pub fn new() -> Self {
        Enc {
            buf: Vec::new(),
            folded: Fnv64::new(),
            stage: usize::MAX,
        }
    }

    /// A hashing sink: everything written is folded into an FNV-1a
    /// state, and [`Enc::digest`] equals `fnv64` of the bytes
    /// [`Enc::new`] would have collected.
    pub fn hasher() -> Self {
        Enc {
            buf: Vec::with_capacity(STAGE_BYTES),
            folded: Fnv64::new(),
            stage: STAGE_BYTES,
        }
    }

    /// Consumes the encoder, yielding the encoded bytes.
    ///
    /// # Panics
    ///
    /// Panics on a [`Enc::hasher`] sink, which does not keep its bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        assert_eq!(self.stage, usize::MAX, "a hashing encoder keeps no bytes");
        self.buf
    }

    /// Consumes the encoder, yielding the FNV-1a digest of everything
    /// written to it.
    pub fn digest(self) -> u64 {
        let mut h = self.folded;
        h.update(&self.buf);
        h.digest()
    }

    /// Folds the staging buffer into the digest once it is full. Only
    /// the length test is inlined into the `put_*` methods, which keeps
    /// small byte encodes as fast as a bare `Vec` push.
    #[inline(always)]
    fn staged(&mut self) {
        if self.buf.len() >= self.stage {
            self.fold();
        }
    }

    #[cold]
    #[inline(never)]
    fn fold(&mut self) {
        self.folded.update(&self.buf);
        self.buf.clear();
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
        self.staged();
    }

    /// Appends a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self.staged();
    }

    /// Appends a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self.staged();
    }

    /// Appends raw bytes with no framing.
    pub fn put_bytes(&mut self, v: &[u8]) {
        if v.len() >= self.stage {
            self.fold();
            self.folded.update(v);
        } else {
            self.buf.extend_from_slice(v);
            self.staged();
        }
    }
}

/// Byte-stream decoder over a borrowed buffer.
#[derive(Debug)]
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    /// A decoder positioned at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Dec { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::Truncated {
                need: n,
                have: self.remaining(),
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one byte.
    pub fn get_u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn get_u32(&mut self) -> Result<u32, CodecError> {
        let s = self.take(4)?;
        Ok(u32::from_le_bytes(s.try_into().expect("4 bytes")))
    }

    /// Reads a little-endian `u64`.
    pub fn get_u64(&mut self) -> Result<u64, CodecError> {
        let s = self.take(8)?;
        Ok(u64::from_le_bytes(s.try_into().expect("8 bytes")))
    }

    /// Reads `n` raw bytes.
    pub fn get_bytes(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        self.take(n)
    }

    /// A sequence length, bounds-checked against the remaining bytes so
    /// a corrupt length cannot trigger a huge allocation.
    fn get_len(&mut self, min_elem_bytes: usize) -> Result<usize, CodecError> {
        let n = self.get_u64()?;
        let n = usize::try_from(n)
            .map_err(|_| CodecError::Invalid(format!("length {n} exceeds usize")))?;
        if min_elem_bytes > 0 && n > self.remaining() / min_elem_bytes {
            return Err(CodecError::Invalid(format!(
                "length {n} impossible with {} bytes remaining",
                self.remaining()
            )));
        }
        Ok(n)
    }
}

/// Self-describing binary serialization for checkpointable state.
///
/// Implemented locally for primitives and for every component crate's
/// `Saved*` plain-data type, keeping all byte-format knowledge in this
/// one module.
pub trait Snapshot: Sized {
    /// Writes `self` to the stream.
    fn encode(&self, e: &mut Enc);
    /// Reads a value back from the stream.
    ///
    /// # Errors
    ///
    /// [`CodecError`] when the stream is truncated or holds an invalid
    /// tag/length.
    fn decode(d: &mut Dec<'_>) -> Result<Self, CodecError>;
}

/// Encodes a value into a fresh byte vector.
pub fn to_bytes<T: Snapshot>(v: &T) -> Vec<u8> {
    let mut e = Enc::new();
    v.encode(&mut e);
    e.into_bytes()
}

/// Decodes a value from `bytes`, requiring the buffer to be consumed
/// exactly.
///
/// # Errors
///
/// [`CodecError`] on truncation, invalid content, or trailing garbage.
pub fn from_bytes<T: Snapshot>(bytes: &[u8]) -> Result<T, CodecError> {
    let mut d = Dec::new(bytes);
    let v = T::decode(&mut d)?;
    if d.remaining() != 0 {
        return Err(CodecError::Invalid(format!(
            "{} trailing bytes after value",
            d.remaining()
        )));
    }
    Ok(v)
}

// ---- primitives -------------------------------------------------------

impl Snapshot for bool {
    fn encode(&self, e: &mut Enc) {
        e.put_u8(u8::from(*self));
    }
    fn decode(d: &mut Dec<'_>) -> Result<Self, CodecError> {
        match d.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            v => Err(CodecError::Invalid(format!("bool tag {v}"))),
        }
    }
}

impl Snapshot for u8 {
    fn encode(&self, e: &mut Enc) {
        e.put_u8(*self);
    }
    fn decode(d: &mut Dec<'_>) -> Result<Self, CodecError> {
        d.get_u8()
    }
}

impl Snapshot for u32 {
    fn encode(&self, e: &mut Enc) {
        e.put_u32(*self);
    }
    fn decode(d: &mut Dec<'_>) -> Result<Self, CodecError> {
        d.get_u32()
    }
}

impl Snapshot for u64 {
    fn encode(&self, e: &mut Enc) {
        e.put_u64(*self);
    }
    fn decode(d: &mut Dec<'_>) -> Result<Self, CodecError> {
        d.get_u64()
    }
}

impl Snapshot for f64 {
    fn encode(&self, e: &mut Enc) {
        e.put_u64(self.to_bits());
    }
    fn decode(d: &mut Dec<'_>) -> Result<Self, CodecError> {
        Ok(f64::from_bits(d.get_u64()?))
    }
}

impl Snapshot for String {
    fn encode(&self, e: &mut Enc) {
        e.put_u64(self.len() as u64);
        e.put_bytes(self.as_bytes());
    }
    fn decode(d: &mut Dec<'_>) -> Result<Self, CodecError> {
        let n = d.get_len(1)?;
        let bytes = d.get_bytes(n)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|e| CodecError::Invalid(format!("non-UTF-8 string: {e}")))
    }
}

impl Snapshot for Ps {
    fn encode(&self, e: &mut Enc) {
        e.put_u64(self.as_ps());
    }
    fn decode(d: &mut Dec<'_>) -> Result<Self, CodecError> {
        Ok(Ps(d.get_u64()?))
    }
}

impl<T: Snapshot> Snapshot for Option<T> {
    fn encode(&self, e: &mut Enc) {
        match self {
            None => e.put_u8(0),
            Some(v) => {
                e.put_u8(1);
                v.encode(e);
            }
        }
    }
    fn decode(d: &mut Dec<'_>) -> Result<Self, CodecError> {
        match d.get_u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(d)?)),
            v => Err(CodecError::Invalid(format!("option tag {v}"))),
        }
    }
}

impl<T: Snapshot> Snapshot for Vec<T> {
    fn encode(&self, e: &mut Enc) {
        e.put_u64(self.len() as u64);
        for v in self {
            v.encode(e);
        }
    }
    fn decode(d: &mut Dec<'_>) -> Result<Self, CodecError> {
        let n = d.get_len(1)?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(T::decode(d)?);
        }
        Ok(out)
    }
}

impl<A: Snapshot, B: Snapshot> Snapshot for (A, B) {
    fn encode(&self, e: &mut Enc) {
        self.0.encode(e);
        self.1.encode(e);
    }
    fn decode(d: &mut Dec<'_>) -> Result<Self, CodecError> {
        Ok((A::decode(d)?, B::decode(d)?))
    }
}

impl<A: Snapshot, B: Snapshot, C: Snapshot> Snapshot for (A, B, C) {
    fn encode(&self, e: &mut Enc) {
        self.0.encode(e);
        self.1.encode(e);
        self.2.encode(e);
    }
    fn decode(d: &mut Dec<'_>) -> Result<Self, CodecError> {
        Ok((A::decode(d)?, B::decode(d)?, C::decode(d)?))
    }
}

impl<T: Snapshot + Copy + Default, const N: usize> Snapshot for [T; N] {
    fn encode(&self, e: &mut Enc) {
        for v in self {
            v.encode(e);
        }
    }
    fn decode(d: &mut Dec<'_>) -> Result<Self, CodecError> {
        let mut out = [T::default(); N];
        for v in &mut out {
            *v = T::decode(d)?;
        }
        Ok(out)
    }
}

// ---- workloads --------------------------------------------------------

impl Snapshot for SavedPattern {
    fn encode(&self, e: &mut Enc) {
        self.cursors.encode(e);
        self.next_stream.encode(e);
    }
    fn decode(d: &mut Dec<'_>) -> Result<Self, CodecError> {
        Ok(SavedPattern {
            cursors: Snapshot::decode(d)?,
            next_stream: Snapshot::decode(d)?,
        })
    }
}

impl Snapshot for SavedWorkload {
    fn encode(&self, e: &mut Enc) {
        self.rng_state.encode(e);
        self.cold.encode(e);
        self.hot_cursor.encode(e);
        e.put_u32(self.mem_credit);
    }
    fn decode(d: &mut Dec<'_>) -> Result<Self, CodecError> {
        Ok(SavedWorkload {
            rng_state: Snapshot::decode(d)?,
            cold: Snapshot::decode(d)?,
            hot_cursor: Snapshot::decode(d)?,
            mem_credit: d.get_u32()?,
        })
    }
}

// ---- cpu --------------------------------------------------------------

impl Snapshot for SavedExecContext {
    fn encode(&self, e: &mut Enc) {
        self.now.encode(e);
        self.issued.encode(e);
        self.outstanding.encode(e);
        self.dependent_block.encode(e);
        self.stall_time.encode(e);
        self.misses.encode(e);
    }
    fn decode(d: &mut Dec<'_>) -> Result<Self, CodecError> {
        Ok(SavedExecContext {
            now: Snapshot::decode(d)?,
            issued: Snapshot::decode(d)?,
            outstanding: Snapshot::decode(d)?,
            dependent_block: Snapshot::decode(d)?,
            stall_time: Snapshot::decode(d)?,
            misses: Snapshot::decode(d)?,
        })
    }
}

impl Snapshot for SavedLine {
    fn encode(&self, e: &mut Enc) {
        self.tag.encode(e);
        self.valid.encode(e);
        self.dirty.encode(e);
        self.stamp.encode(e);
    }
    fn decode(d: &mut Dec<'_>) -> Result<Self, CodecError> {
        Ok(SavedLine {
            tag: Snapshot::decode(d)?,
            valid: Snapshot::decode(d)?,
            dirty: Snapshot::decode(d)?,
            stamp: Snapshot::decode(d)?,
        })
    }
}

impl Snapshot for CacheStats {
    fn encode(&self, e: &mut Enc) {
        self.hits.encode(e);
        self.misses.encode(e);
        self.writebacks.encode(e);
    }
    fn decode(d: &mut Dec<'_>) -> Result<Self, CodecError> {
        Ok(CacheStats {
            hits: Snapshot::decode(d)?,
            misses: Snapshot::decode(d)?,
            writebacks: Snapshot::decode(d)?,
        })
    }
}

impl Snapshot for SavedCache {
    fn encode(&self, e: &mut Enc) {
        self.lines.encode(e);
        self.tick.encode(e);
        self.stats.encode(e);
    }
    fn decode(d: &mut Dec<'_>) -> Result<Self, CodecError> {
        Ok(SavedCache {
            lines: Snapshot::decode(d)?,
            tick: Snapshot::decode(d)?,
            stats: Snapshot::decode(d)?,
        })
    }
}

impl Snapshot for HierStats {
    fn encode(&self, e: &mut Enc) {
        self.accesses.encode(e);
        self.llc_misses.encode(e);
        self.writebacks.encode(e);
    }
    fn decode(d: &mut Dec<'_>) -> Result<Self, CodecError> {
        Ok(HierStats {
            accesses: Snapshot::decode(d)?,
            llc_misses: Snapshot::decode(d)?,
            writebacks: Snapshot::decode(d)?,
        })
    }
}

impl Snapshot for SavedHierarchy {
    fn encode(&self, e: &mut Enc) {
        self.l1.encode(e);
        self.l2.encode(e);
        self.stats.encode(e);
    }
    fn decode(d: &mut Dec<'_>) -> Result<Self, CodecError> {
        Ok(SavedHierarchy {
            l1: Snapshot::decode(d)?,
            l2: Snapshot::decode(d)?,
            stats: Snapshot::decode(d)?,
        })
    }
}

// ---- os ---------------------------------------------------------------

impl Snapshot for TaskId {
    fn encode(&self, e: &mut Enc) {
        e.put_u32(self.0);
    }
    fn decode(d: &mut Dec<'_>) -> Result<Self, CodecError> {
        Ok(TaskId(d.get_u32()?))
    }
}

impl Snapshot for SavedRunqueue {
    fn encode(&self, e: &mut Enc) {
        self.entries.encode(e);
        self.min_vruntime.encode(e);
    }
    fn decode(d: &mut Dec<'_>) -> Result<Self, CodecError> {
        Ok(SavedRunqueue {
            entries: Snapshot::decode(d)?,
            min_vruntime: Snapshot::decode(d)?,
        })
    }
}

impl Snapshot for SchedStats {
    fn encode(&self, e: &mut Enc) {
        self.picks.encode(e);
        self.refresh_dodges.encode(e);
        self.eta_fallbacks.encode(e);
        self.migrations.encode(e);
    }
    fn decode(d: &mut Dec<'_>) -> Result<Self, CodecError> {
        Ok(SchedStats {
            picks: Snapshot::decode(d)?,
            refresh_dodges: Snapshot::decode(d)?,
            eta_fallbacks: Snapshot::decode(d)?,
            migrations: Snapshot::decode(d)?,
        })
    }
}

impl Snapshot for SavedScheduler {
    fn encode(&self, e: &mut Enc) {
        self.queues.encode(e);
        self.stats.encode(e);
    }
    fn decode(d: &mut Dec<'_>) -> Result<Self, CodecError> {
        Ok(SavedScheduler {
            queues: Snapshot::decode(d)?,
            stats: Snapshot::decode(d)?,
        })
    }
}

impl Snapshot for SavedAddressSpace {
    fn encode(&self, e: &mut Enc) {
        self.pages.encode(e);
        self.faults.encode(e);
    }
    fn decode(d: &mut Dec<'_>) -> Result<Self, CodecError> {
        Ok(SavedAddressSpace {
            pages: Snapshot::decode(d)?,
            faults: Snapshot::decode(d)?,
        })
    }
}

impl Snapshot for SavedBuddy {
    fn encode(&self, e: &mut Enc) {
        self.frames.encode(e);
        self.free_frames.encode(e);
        self.free_lists.encode(e);
        e.put_u64(self.alloc_map.len() as u64);
        e.put_bytes(&self.alloc_map);
    }
    fn decode(d: &mut Dec<'_>) -> Result<Self, CodecError> {
        let frames = Snapshot::decode(d)?;
        let free_frames = Snapshot::decode(d)?;
        let free_lists = Snapshot::decode(d)?;
        let n = d.get_len(1)?;
        let alloc_map = d.get_bytes(n)?.to_vec().into();
        Ok(SavedBuddy {
            frames,
            free_frames,
            free_lists,
            alloc_map,
        })
    }
}

impl Snapshot for BankAllocStats {
    fn encode(&self, e: &mut Enc) {
        self.allocations.encode(e);
        self.cache_hits.encode(e);
        self.pulls.encode(e);
        self.fallbacks.encode(e);
    }
    fn decode(d: &mut Dec<'_>) -> Result<Self, CodecError> {
        Ok(BankAllocStats {
            allocations: Snapshot::decode(d)?,
            cache_hits: Snapshot::decode(d)?,
            pulls: Snapshot::decode(d)?,
            fallbacks: Snapshot::decode(d)?,
        })
    }
}

impl Snapshot for SavedBankAlloc {
    fn encode(&self, e: &mut Enc) {
        self.buddy.encode(e);
        self.per_bank_free.encode(e);
        self.stats.encode(e);
    }
    fn decode(d: &mut Dec<'_>) -> Result<Self, CodecError> {
        Ok(SavedBankAlloc {
            buddy: Snapshot::decode(d)?,
            per_bank_free: Snapshot::decode(d)?,
            stats: Snapshot::decode(d)?,
        })
    }
}

// ---- dram -------------------------------------------------------------

impl Snapshot for BankPhase {
    fn encode(&self, e: &mut Enc) {
        e.put_u8(match self {
            BankPhase::Idle => 0,
            BankPhase::Active => 1,
            BankPhase::Refreshing => 2,
        });
    }
    fn decode(d: &mut Dec<'_>) -> Result<Self, CodecError> {
        match d.get_u8()? {
            0 => Ok(BankPhase::Idle),
            1 => Ok(BankPhase::Active),
            2 => Ok(BankPhase::Refreshing),
            v => Err(CodecError::Invalid(format!("bank phase tag {v}"))),
        }
    }
}

impl Snapshot for SavedBank {
    fn encode(&self, e: &mut Enc) {
        self.phase.encode(e);
        self.open_row.encode(e);
        self.next_act.encode(e);
        self.next_pre.encode(e);
        self.next_cas.encode(e);
        self.busy_until.encode(e);
        self.rows_refreshed.encode(e);
        self.refresh_busy_total.encode(e);
        self.activations.encode(e);
    }
    fn decode(d: &mut Dec<'_>) -> Result<Self, CodecError> {
        Ok(SavedBank {
            phase: Snapshot::decode(d)?,
            open_row: Snapshot::decode(d)?,
            next_act: Snapshot::decode(d)?,
            next_pre: Snapshot::decode(d)?,
            next_cas: Snapshot::decode(d)?,
            busy_until: Snapshot::decode(d)?,
            rows_refreshed: Snapshot::decode(d)?,
            refresh_busy_total: Snapshot::decode(d)?,
            activations: Snapshot::decode(d)?,
        })
    }
}

impl Snapshot for SavedRank {
    fn encode(&self, e: &mut Enc) {
        self.recent_acts.encode(e);
        self.act_count.encode(e);
        self.next_act_rank.encode(e);
        self.next_rd_rank.encode(e);
        self.refresh_until.encode(e);
        self.refresh_busy_total.encode(e);
    }
    fn decode(d: &mut Dec<'_>) -> Result<Self, CodecError> {
        Ok(SavedRank {
            recent_acts: Snapshot::decode(d)?,
            act_count: Snapshot::decode(d)?,
            next_act_rank: Snapshot::decode(d)?,
            next_rd_rank: Snapshot::decode(d)?,
            refresh_until: Snapshot::decode(d)?,
            refresh_busy_total: Snapshot::decode(d)?,
        })
    }
}

impl Snapshot for ViolationKind {
    fn encode(&self, e: &mut Enc) {
        e.put_u8(match self {
            ViolationKind::LateRefresh => 0,
            ViolationKind::StaleAtEnd => 1,
            ViolationKind::WeakRow => 2,
        });
    }
    fn decode(d: &mut Dec<'_>) -> Result<Self, CodecError> {
        match d.get_u8()? {
            0 => Ok(ViolationKind::LateRefresh),
            1 => Ok(ViolationKind::StaleAtEnd),
            2 => Ok(ViolationKind::WeakRow),
            v => Err(CodecError::Invalid(format!("violation kind tag {v}"))),
        }
    }
}

impl Snapshot for RetentionViolation {
    fn encode(&self, e: &mut Enc) {
        self.kind.encode(e);
        self.flat_bank.encode(e);
        self.row_start.encode(e);
        self.row_end.encode(e);
        self.interval.encode(e);
        self.limit.encode(e);
        self.at.encode(e);
    }
    fn decode(d: &mut Dec<'_>) -> Result<Self, CodecError> {
        Ok(RetentionViolation {
            kind: Snapshot::decode(d)?,
            flat_bank: Snapshot::decode(d)?,
            row_start: Snapshot::decode(d)?,
            row_end: Snapshot::decode(d)?,
            interval: Snapshot::decode(d)?,
            limit: Snapshot::decode(d)?,
            at: Snapshot::decode(d)?,
        })
    }
}

impl Snapshot for SavedBankTrack {
    fn encode(&self, e: &mut Enc) {
        self.cursor.encode(e);
        self.spans.encode(e);
    }
    fn decode(d: &mut Dec<'_>) -> Result<Self, CodecError> {
        Ok(SavedBankTrack {
            cursor: Snapshot::decode(d)?,
            spans: Snapshot::decode(d)?,
        })
    }
}

impl Snapshot for SavedTracker {
    fn encode(&self, e: &mut Enc) {
        self.banks.encode(e);
        self.weak_last.encode(e);
        self.violations.encode(e);
        self.total.encode(e);
    }
    fn decode(d: &mut Dec<'_>) -> Result<Self, CodecError> {
        Ok(SavedTracker {
            banks: Snapshot::decode(d)?,
            weak_last: Snapshot::decode(d)?,
            violations: Snapshot::decode(d)?,
            total: Snapshot::decode(d)?,
        })
    }
}

impl Snapshot for RefreshOp {
    fn encode(&self, e: &mut Enc) {
        match *self {
            RefreshOp::AllBank { rank, rows } => {
                e.put_u8(0);
                e.put_u8(rank);
                e.put_u32(rows);
            }
            RefreshOp::PerBank { bank, rows } => {
                e.put_u8(1);
                e.put_u8(bank.rank);
                e.put_u8(bank.bank);
                e.put_u32(rows);
            }
        }
    }
    fn decode(d: &mut Dec<'_>) -> Result<Self, CodecError> {
        match d.get_u8()? {
            0 => Ok(RefreshOp::AllBank {
                rank: d.get_u8()?,
                rows: d.get_u32()?,
            }),
            1 => {
                let rank = d.get_u8()?;
                let bank = d.get_u8()?;
                Ok(RefreshOp::PerBank {
                    bank: BankId::new(rank, bank),
                    rows: d.get_u32()?,
                })
            }
            v => Err(CodecError::Invalid(format!("refresh op tag {v}"))),
        }
    }
}

impl Snapshot for Completion {
    fn encode(&self, e: &mut Enc) {
        self.id.0.encode(e);
        self.at.encode(e);
        self.latency.encode(e);
    }
    fn decode(d: &mut Dec<'_>) -> Result<Self, CodecError> {
        Ok(Completion {
            id: ReqId(Snapshot::decode(d)?),
            at: Snapshot::decode(d)?,
            latency: Snapshot::decode(d)?,
        })
    }
}

impl Snapshot for ControllerStats {
    fn encode(&self, e: &mut Enc) {
        self.reads_enqueued.encode(e);
        self.writes_enqueued.encode(e);
        self.reads_completed.encode(e);
        self.writes_completed.encode(e);
        self.forwarded_reads.encode(e);
        self.row_hits.encode(e);
        self.row_misses.encode(e);
        self.row_conflicts.encode(e);
        self.refreshes_ab.encode(e);
        self.refreshes_pb.encode(e);
        self.refresh_postpone_total.encode(e);
        self.refresh_postpone_max.encode(e);
        self.read_latency_total.encode(e);
        self.read_latency_max.encode(e);
        self.refresh_blocked_reads.encode(e);
        self.data_bus_busy.encode(e);
        self.queue_reject_reads.encode(e);
        self.queue_reject_writes.encode(e);
        self.write_drains.encode(e);
        self.retention_violations.encode(e);
        self.injected_skip_faults.encode(e);
        self.injected_delay_faults.encode(e);
    }
    fn decode(d: &mut Dec<'_>) -> Result<Self, CodecError> {
        Ok(ControllerStats {
            reads_enqueued: Snapshot::decode(d)?,
            writes_enqueued: Snapshot::decode(d)?,
            reads_completed: Snapshot::decode(d)?,
            writes_completed: Snapshot::decode(d)?,
            forwarded_reads: Snapshot::decode(d)?,
            row_hits: Snapshot::decode(d)?,
            row_misses: Snapshot::decode(d)?,
            row_conflicts: Snapshot::decode(d)?,
            refreshes_ab: Snapshot::decode(d)?,
            refreshes_pb: Snapshot::decode(d)?,
            refresh_postpone_total: Snapshot::decode(d)?,
            refresh_postpone_max: Snapshot::decode(d)?,
            read_latency_total: Snapshot::decode(d)?,
            read_latency_max: Snapshot::decode(d)?,
            refresh_blocked_reads: Snapshot::decode(d)?,
            data_bus_busy: Snapshot::decode(d)?,
            queue_reject_reads: Snapshot::decode(d)?,
            queue_reject_writes: Snapshot::decode(d)?,
            write_drains: Snapshot::decode(d)?,
            retention_violations: Snapshot::decode(d)?,
            injected_skip_faults: Snapshot::decode(d)?,
            injected_delay_faults: Snapshot::decode(d)?,
        })
    }
}

impl Snapshot for SavedEntry {
    fn encode(&self, e: &mut Enc) {
        self.id.encode(e);
        self.write.encode(e);
        self.paddr.encode(e);
        self.arrival.encode(e);
        self.core.encode(e);
        self.task.encode(e);
        self.needed_act.encode(e);
        self.needed_pre.encode(e);
        self.refresh_blocked.encode(e);
    }
    fn decode(d: &mut Dec<'_>) -> Result<Self, CodecError> {
        Ok(SavedEntry {
            id: Snapshot::decode(d)?,
            write: Snapshot::decode(d)?,
            paddr: Snapshot::decode(d)?,
            arrival: Snapshot::decode(d)?,
            core: Snapshot::decode(d)?,
            task: Snapshot::decode(d)?,
            needed_act: Snapshot::decode(d)?,
            needed_pre: Snapshot::decode(d)?,
            refresh_blocked: Snapshot::decode(d)?,
        })
    }
}

impl Snapshot for SavedPendingRefresh {
    fn encode(&self, e: &mut Enc) {
        self.op.encode(e);
        self.due.encode(e);
        self.injected_delay.encode(e);
    }
    fn decode(d: &mut Dec<'_>) -> Result<Self, CodecError> {
        Ok(SavedPendingRefresh {
            op: Snapshot::decode(d)?,
            due: Snapshot::decode(d)?,
            injected_delay: Snapshot::decode(d)?,
        })
    }
}

impl Snapshot for SavedController {
    fn encode(&self, e: &mut Enc) {
        self.banks.encode(e);
        self.ranks.encode(e);
        self.read_q.encode(e);
        self.write_q.encode(e);
        self.draining.encode(e);
        self.cursor.encode(e);
        self.cmd_bus_free.encode(e);
        self.data_bus_free.encode(e);
        self.data_bus_owner.encode(e);
        self.pending_refresh.encode(e);
        self.epoch_start.encode(e);
        self.epoch_bus_busy.encode(e);
        self.last_utilization.encode(e);
        self.completions.encode(e);
        self.stats.encode(e);
        self.integrity.encode(e);
        self.refresh_seq.encode(e);
        self.policy_words.encode(e);
    }
    fn decode(d: &mut Dec<'_>) -> Result<Self, CodecError> {
        Ok(SavedController {
            banks: Snapshot::decode(d)?,
            ranks: Snapshot::decode(d)?,
            read_q: Snapshot::decode(d)?,
            write_q: Snapshot::decode(d)?,
            draining: Snapshot::decode(d)?,
            cursor: Snapshot::decode(d)?,
            cmd_bus_free: Snapshot::decode(d)?,
            data_bus_free: Snapshot::decode(d)?,
            data_bus_owner: Snapshot::decode(d)?,
            pending_refresh: Snapshot::decode(d)?,
            epoch_start: Snapshot::decode(d)?,
            epoch_bus_busy: Snapshot::decode(d)?,
            last_utilization: Snapshot::decode(d)?,
            completions: Snapshot::decode(d)?,
            stats: Snapshot::decode(d)?,
            integrity: Snapshot::decode(d)?,
            refresh_seq: Snapshot::decode(d)?,
            policy_words: Snapshot::decode(d)?,
        })
    }
}

impl Snapshot for SavedShadowBank {
    fn encode(&self, e: &mut Enc) {
        self.open_row.encode(e);
        self.last_act.encode(e);
        self.ready_act.encode(e);
        self.ready_cas.encode(e);
        self.ready_pre.encode(e);
        self.refresh_until.encode(e);
        self.last_cmd.encode(e);
        self.rows_refreshed.encode(e);
        self.activations.encode(e);
        self.refresh_busy.encode(e);
    }
    fn decode(d: &mut Dec<'_>) -> Result<Self, CodecError> {
        Ok(SavedShadowBank {
            open_row: Snapshot::decode(d)?,
            last_act: Snapshot::decode(d)?,
            ready_act: Snapshot::decode(d)?,
            ready_cas: Snapshot::decode(d)?,
            ready_pre: Snapshot::decode(d)?,
            refresh_until: Snapshot::decode(d)?,
            last_cmd: Snapshot::decode(d)?,
            rows_refreshed: Snapshot::decode(d)?,
            activations: Snapshot::decode(d)?,
            refresh_busy: Snapshot::decode(d)?,
        })
    }
}

impl Snapshot for SavedShadowRank {
    fn encode(&self, e: &mut Enc) {
        for a in &self.acts {
            a.encode(e);
        }
        self.act_pos.encode(e);
        self.read_ready.encode(e);
        self.refresh_until.encode(e);
    }
    fn decode(d: &mut Dec<'_>) -> Result<Self, CodecError> {
        let mut acts = [Ps::ZERO; 4];
        for a in &mut acts {
            *a = Snapshot::decode(d)?;
        }
        Ok(SavedShadowRank {
            acts,
            act_pos: Snapshot::decode(d)?,
            read_ready: Snapshot::decode(d)?,
            refresh_until: Snapshot::decode(d)?,
        })
    }
}

impl Snapshot for SavedShadow {
    fn encode(&self, e: &mut Enc) {
        self.banks.encode(e);
        self.ranks.encode(e);
        self.read_q.encode(e);
        self.write_q.encode(e);
        self.draining.encode(e);
        self.cursor.encode(e);
        self.data_bus_free.encode(e);
        self.data_bus_owner.encode(e);
        self.pending_refresh.encode(e);
        self.epoch_start.encode(e);
        self.epoch_bus_busy.encode(e);
        self.last_utilization.encode(e);
        self.completions.encode(e);
        self.stats.encode(e);
        self.integrity.encode(e);
        self.refresh_seq.encode(e);
        self.policy_words.encode(e);
    }
    fn decode(d: &mut Dec<'_>) -> Result<Self, CodecError> {
        Ok(SavedShadow {
            banks: Snapshot::decode(d)?,
            ranks: Snapshot::decode(d)?,
            read_q: Snapshot::decode(d)?,
            write_q: Snapshot::decode(d)?,
            draining: Snapshot::decode(d)?,
            cursor: Snapshot::decode(d)?,
            data_bus_free: Snapshot::decode(d)?,
            data_bus_owner: Snapshot::decode(d)?,
            pending_refresh: Snapshot::decode(d)?,
            epoch_start: Snapshot::decode(d)?,
            epoch_bus_busy: Snapshot::decode(d)?,
            last_utilization: Snapshot::decode(d)?,
            completions: Snapshot::decode(d)?,
            stats: Snapshot::decode(d)?,
            integrity: Snapshot::decode(d)?,
            refresh_seq: Snapshot::decode(d)?,
            policy_words: Snapshot::decode(d)?,
        })
    }
}

impl Snapshot for SavedBackend {
    fn encode(&self, e: &mut Enc) {
        match self {
            SavedBackend::Primary(s) => {
                e.put_u8(0);
                s.encode(e);
            }
            SavedBackend::Shadow(s) => {
                e.put_u8(1);
                s.encode(e);
            }
        }
    }
    fn decode(d: &mut Dec<'_>) -> Result<Self, CodecError> {
        match d.get_u8()? {
            0 => Ok(SavedBackend::Primary(Snapshot::decode(d)?)),
            1 => Ok(SavedBackend::Shadow(Snapshot::decode(d)?)),
            v => Err(CodecError::Invalid(format!("backend tag {v}"))),
        }
    }
}

// ---- core metrics (persisted by the resilient sweep runner) ----------

impl Snapshot for TaskMetrics {
    fn encode(&self, e: &mut Enc) {
        self.task.encode(e);
        self.label.encode(e);
        self.instructions.encode(e);
        self.cpu_time.encode(e);
        self.stall_time.encode(e);
        self.llc_misses.encode(e);
        self.faults.encode(e);
        self.spilled_pages.encode(e);
        self.schedules.encode(e);
    }
    fn decode(d: &mut Dec<'_>) -> Result<Self, CodecError> {
        Ok(TaskMetrics {
            task: Snapshot::decode(d)?,
            label: Snapshot::decode(d)?,
            instructions: Snapshot::decode(d)?,
            cpu_time: Snapshot::decode(d)?,
            stall_time: Snapshot::decode(d)?,
            llc_misses: Snapshot::decode(d)?,
            faults: Snapshot::decode(d)?,
            spilled_pages: Snapshot::decode(d)?,
            schedules: Snapshot::decode(d)?,
        })
    }
}

impl Snapshot for RunMetrics {
    fn encode(&self, e: &mut Enc) {
        self.tasks.encode(e);
        self.sim_time.encode(e);
        self.controller.encode(e);
        self.sched.encode(e);
        self.cpu_period.encode(e);
        self.dram_period.encode(e);
    }
    fn decode(d: &mut Dec<'_>) -> Result<Self, CodecError> {
        Ok(RunMetrics {
            tasks: Snapshot::decode(d)?,
            sim_time: Snapshot::decode(d)?,
            controller: Snapshot::decode(d)?,
            sched: Snapshot::decode(d)?,
            cpu_period: Snapshot::decode(d)?,
            dram_period: Snapshot::decode(d)?,
        })
    }
}

// ---- hashing ----------------------------------------------------------

/// FNV-1a offset basis.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a prime.
pub const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Incremental FNV-1a hasher over byte streams — the state digest the
/// deterministic-replay auditor samples each quantum.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv64 {
    state: u64,
}

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64::new()
    }
}

impl Fnv64 {
    /// A hasher at the FNV offset basis.
    pub fn new() -> Self {
        Fnv64 { state: FNV_OFFSET }
    }

    /// Folds `bytes` into the hash state.
    ///
    /// An all-zero 8-byte word is folded as one multiply by
    /// `FNV_PRIME^8`: XOR with a zero byte leaves the state unchanged, so
    /// the digest is the byte-at-a-time FNV-1a digest. Mostly-zero
    /// images (the buddy allocator's per-frame map) then cost one
    /// multiply per word instead of eight.
    pub fn update(&mut self, bytes: &[u8]) {
        const FNV_PRIME_POW8: u64 = FNV_PRIME.wrapping_pow(8);
        let fold = |mut state: u64, bytes: &[u8]| {
            for &b in bytes {
                state ^= u64::from(b);
                state = state.wrapping_mul(FNV_PRIME);
            }
            state
        };
        let (words, tail) = bytes.as_chunks::<8>();
        let mut state = self.state;
        for w in words {
            state = if u64::from_ne_bytes(*w) == 0 {
                state.wrapping_mul(FNV_PRIME_POW8)
            } else {
                fold(state, w)
            };
        }
        self.state = fold(state, tail);
    }

    /// The current digest.
    pub fn digest(&self) -> u64 {
        self.state
    }
}

/// One-shot FNV-1a of `bytes`.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = Fnv64::new();
    h.update(bytes);
    h.digest()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Snapshot + PartialEq + std::fmt::Debug>(v: &T) {
        let bytes = to_bytes(v);
        let back: T = from_bytes(&bytes).expect("roundtrip decode");
        assert_eq!(&back, v);
    }

    #[test]
    fn primitives_roundtrip() {
        roundtrip(&true);
        roundtrip(&false);
        roundtrip(&0xA5u8);
        roundtrip(&0xDEAD_BEEFu32);
        roundtrip(&u64::MAX);
        roundtrip(&1.5f64);
        roundtrip(&f64::NAN.to_bits()); // NaN via bits stays exact
        roundtrip(&String::from("refsim"));
        roundtrip(&Ps::from_ns(7_800));
        roundtrip(&Some(42u64));
        roundtrip(&Option::<u64>::None);
        roundtrip(&vec![1u64, 2, 3]);
        roundtrip(&(Ps::from_us(1), TaskId(3)));
        roundtrip(&[Ps::from_ns(1), Ps::from_ns(2), Ps::from_ns(3), Ps::ZERO]);
    }

    #[test]
    fn f64_bit_pattern_is_exact() {
        let v = 0.1f64 + 0.2f64;
        let back: f64 = from_bytes(&to_bytes(&v)).unwrap();
        assert_eq!(back.to_bits(), v.to_bits());
    }

    #[test]
    fn truncated_stream_is_an_error() {
        let bytes = to_bytes(&0xDEAD_BEEF_CAFEu64);
        let r: Result<u64, _> = from_bytes(&bytes[..5]);
        assert!(matches!(r, Err(CodecError::Truncated { .. })), "{r:?}");
    }

    #[test]
    fn trailing_garbage_is_an_error() {
        let mut bytes = to_bytes(&1u64);
        bytes.push(0);
        let r: Result<u64, _> = from_bytes(&bytes);
        assert!(matches!(r, Err(CodecError::Invalid(_))), "{r:?}");
    }

    #[test]
    fn corrupt_length_cannot_allocate_absurdly() {
        // A Vec<u64> claiming 2^60 elements with 8 bytes of payload.
        let mut e = Enc::new();
        e.put_u64(1 << 60);
        e.put_u64(7);
        let r: Result<Vec<u64>, _> = from_bytes(&e.into_bytes());
        assert!(matches!(r, Err(CodecError::Invalid(_))), "{r:?}");
    }

    #[test]
    fn bad_tags_are_errors() {
        let r: Result<bool, _> = from_bytes(&[7]);
        assert!(r.is_err());
        let r: Result<Option<u8>, _> = from_bytes(&[2, 0]);
        assert!(r.is_err());
        let r: Result<BankPhase, _> = from_bytes(&[9]);
        assert!(r.is_err());
    }

    #[test]
    fn saved_component_types_roundtrip() {
        roundtrip(&SavedPattern {
            cursors: vec![1, 2, 3],
            next_stream: 1,
        });
        roundtrip(&SavedExecContext {
            now: Ps::from_us(3),
            issued: 100,
            outstanding: vec![(7, 42, true), (8, 50, false)],
            dependent_block: Some(7),
            stall_time: Ps::from_ns(500),
            misses: 2,
        });
        roundtrip(&SavedBank {
            phase: BankPhase::Active,
            open_row: Some(17),
            next_act: Ps::from_ns(10),
            next_pre: Ps::from_ns(20),
            next_cas: Ps::from_ns(30),
            busy_until: Ps::ZERO,
            rows_refreshed: 64,
            refresh_busy_total: Ps::from_ns(890),
            activations: 5,
        });
        roundtrip(&RefreshOp::PerBank {
            bank: BankId::new(1, 3),
            rows: 64,
        });
        roundtrip(&RefreshOp::AllBank { rank: 0, rows: 32 });
        roundtrip(&ControllerStats {
            reads_completed: 10,
            read_latency_total: Ps::from_us(5),
            ..Default::default()
        });
    }

    #[test]
    fn encoding_is_byte_deterministic() {
        let v = SavedTracker {
            banks: vec![SavedBankTrack {
                cursor: 3,
                spans: vec![(0, 128, Ps::from_us(2))],
            }],
            weak_last: vec![Ps::from_us(1)],
            violations: vec![],
            total: 0,
        };
        assert_eq!(to_bytes(&v), to_bytes(&v));
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        // Standard FNV-1a test vectors.
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn fnv_incremental_equals_oneshot() {
        let mut h = Fnv64::new();
        h.update(b"foo");
        h.update(b"bar");
        assert_eq!(h.digest(), fnv64(b"foobar"));
    }

    /// Byte-at-a-time FNV-1a, the definition `Fnv64::update` must match.
    fn fnv64_bytewise(bytes: &[u8]) -> u64 {
        let mut state = FNV_OFFSET;
        for &b in bytes {
            state ^= u64::from(b);
            state = state.wrapping_mul(FNV_PRIME);
        }
        state
    }

    /// Test-local splitmix64 stream.
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    #[test]
    fn zero_word_skip_matches_the_bytewise_definition() {
        let mut rng = 0x5EED_u64;
        for len in 0..=80usize {
            // Zero runs of every length up to 20 at every start offset,
            // so whole zero words land at every alignment of the slice.
            for start in 0..len.max(1) {
                for run in 0..=20usize.min(len - start.min(len)) {
                    let mut buf: Vec<u8> = (0..len).map(|_| splitmix(&mut rng) as u8).collect();
                    buf[start..start + run].fill(0);
                    let want = fnv64_bytewise(&buf);
                    assert_eq!(fnv64(&buf), want, "len {len} zeros {start}+{run}");
                    // Split points move the 8-byte grid relative to the run.
                    let cut = (splitmix(&mut rng) as usize) % (len + 1);
                    let mut h = Fnv64::new();
                    h.update(&buf[..cut]);
                    h.update(&buf[cut..]);
                    assert_eq!(h.digest(), want, "len {len} zeros {start}+{run} cut {cut}");
                }
            }
        }
        // A multi-MiB, mostly-zero image like the buddy allocator's map.
        let mut big = vec![0u8; 5 << 20];
        for _ in 0..2000 {
            let at = (splitmix(&mut rng) as usize) % big.len();
            big[at] = splitmix(&mut rng) as u8 | 1;
        }
        assert_eq!(fnv64(&big), fnv64_bytewise(&big));
    }

    /// Writes the same stream into a byte encoder and a hashing sink and
    /// checks the sink's digest is the bytes' FNV-1a digest.
    fn assert_sink_matches(write: impl Fn(&mut Enc)) {
        let mut bytes = Enc::new();
        write(&mut bytes);
        let want = fnv64(&bytes.into_bytes());
        let mut sink = Enc::hasher();
        write(&mut sink);
        assert_eq!(sink.digest(), want);
    }

    #[test]
    fn hashing_sink_digest_equals_fnv_of_the_encoding() {
        assert_sink_matches(|_| {});
        // Many small puts: crosses the staging threshold many times at
        // shifting offsets.
        assert_sink_matches(|e| {
            for i in 0..5000u64 {
                e.put_u8(i as u8);
                e.put_u32(i as u32 * 7);
                e.put_u64(i.wrapping_mul(0x9E37_79B9));
            }
        });
        // Large `put_bytes` after a part-filled buffer, at, just below
        // and well above the threshold, with zero and non-zero payloads.
        for n in [
            STAGE_BYTES - 1,
            STAGE_BYTES,
            STAGE_BYTES + 1,
            3 * STAGE_BYTES + 5,
        ] {
            let payload: Vec<u8> = (0..n).map(|i| (i % 251) as u8).collect();
            assert_sink_matches(|e| {
                e.put_u32(0xDEAD_BEEF);
                e.put_u8(3);
                e.put_bytes(&payload);
                e.put_u64(n as u64);
                e.put_bytes(&vec![0; n]);
                e.put_u8(9);
            });
        }
        // A whole component value through `Snapshot::encode`.
        let v: Vec<(u64, Option<u32>)> = (0..3000)
            .map(|i| (i, (i % 3 == 0).then_some(i as u32)))
            .collect();
        assert_sink_matches(|e| v.encode(e));
    }

    #[test]
    fn hashing_sink_digests_a_32gb_system_state_exactly() {
        use crate::config::SystemConfig;
        use crate::system::System;
        use refsim_dram::timing::Density;
        use refsim_workloads::mix::WorkloadMix;
        use refsim_workloads::profiles::Benchmark;

        let mut cfg = SystemConfig::table1()
            .with_density(Density::Gb32)
            .with_time_scale(512);
        cfg.warmup = cfg.trefw() / 8;
        cfg.measure = cfg.trefw() / 4;
        let mix = WorkloadMix::from_groups(
            "pair",
            &[(Benchmark::Mcf, 1), (Benchmark::Povray, 1)],
            "H + L",
        );
        let mut sys = System::new(cfg, &mix);
        sys.run();
        let state = sys.export_state();
        let bytes = to_bytes(&state);
        assert!(
            bytes.len() > 8 << 20,
            "a 32 Gb state carries its 8 MiB page map"
        );
        let mut sink = Enc::hasher();
        state.encode(&mut sink);
        assert_eq!(sink.digest(), fnv64_bytewise(&bytes));
    }
}
