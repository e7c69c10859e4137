//! Typed observability events and their two encodings: JSONL and the
//! binary wire form of [`crate::wire`].
//!
//! One [`ObsEvent`] is one fact about the simulation, timestamped in
//! simulated time. The set mirrors the paper's moving parts: the request
//! lifecycle (`submit → admit → chip-issue → complete`), NAND operations,
//! GC runs, gSB harvest/lend/reclaim transitions, token-bucket throttles
//! and per-window statistics flushes.
//!
//! The `obs_events!` table below is the only per-kind description of the
//! schema: each kind's name, its JSON `type` tag and its fields in wire
//! order. The enum, [`ObsEvent::KIND_TAGS`], [`ObsEvent::kind_index`],
//! [`ObsEvent::write_json`] and the wire field codec are generated from
//! it, and each field type's JSON and wire form is written once, as a
//! `Field` impl. Kinds, fields and tag-enum variants are append-only:
//! positions are wire tags and run-store bitmap bits, so never reorder
//! them.
//!
//! JSON is hand-rolled (pure std): integers and `bool`s render exactly,
//! `f64`s use Rust's shortest-roundtrip `Display` (valid JSON,
//! deterministic), non-finite floats are clamped to `0` and strings are
//! escaped, so a line is always parseable.

use std::fmt::Write as _;

use fleetio_des::{SimDuration, SimTime};

use crate::wire::{Reader, WireError};

/// One field type's JSON value and wire bytes. The `get` impls are
/// `#[inline(always)]`: `wire::decode_event` inlines each kind's whole
/// reader, and a field read left out of line costs it a call per field.
pub(crate) trait Field: Sized {
    /// Appends the JSON value.
    fn write_json(&self, out: &mut String);
    /// Appends the wire bytes.
    fn put(&self, out: &mut Vec<u8>);
    /// Reads the wire bytes back.
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError>;
}

/// Little-endian fixed width on the wire, decimal in JSON.
macro_rules! int_field {
    ($($t:ty),*) => {$(
        impl Field for $t {
            fn write_json(&self, out: &mut String) {
                let _ = write!(out, "{self}");
            }
            fn put(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
            #[inline(always)]
            fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
                r.array().map(<$t>::from_le_bytes)
            }
        }
    )*};
}
int_field!(u16, u32, u64);

/// Sim-time values travel as their `u64` nanoseconds.
macro_rules! nanos_field {
    ($($t:ty),*) => {$(
        impl Field for $t {
            fn write_json(&self, out: &mut String) {
                self.as_nanos().write_json(out);
            }
            fn put(&self, out: &mut Vec<u8>) {
                self.as_nanos().put(out);
            }
            #[inline(always)]
            fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
                u64::get(r).map(<$t>::from_nanos)
            }
        }
    )*};
}
nanos_field!(SimTime, SimDuration);

/// One `0`/`1` byte on the wire; any other byte is rejected.
impl Field for bool {
    fn write_json(&self, out: &mut String) {
        out.push_str(if *self { "true" } else { "false" });
    }
    fn put(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }
    #[inline(always)]
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            t => Err(WireError::BadTag(t)),
        }
    }
}

/// IEEE bits on the wire (bit-exact, NaN payloads included). JSON
/// clamps non-finite values to `0` so the line stays valid.
impl Field for f64 {
    fn write_json(&self, out: &mut String) {
        if self.is_finite() {
            let _ = write!(out, "{self}");
        } else {
            out.push('0');
        }
    }
    fn put(&self, out: &mut Vec<u8>) {
        self.to_bits().put(out);
    }
    #[inline(always)]
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        u64::get(r).map(f64::from_bits)
    }
}

/// `null` in JSON; a presence flag (as a `bool`) then the value on the
/// wire.
impl<T: Field> Field for Option<T> {
    fn write_json(&self, out: &mut String) {
        match self {
            Some(v) => v.write_json(out),
            None => out.push_str("null"),
        }
    }
    fn put(&self, out: &mut Vec<u8>) {
        self.is_some().put(out);
        if let Some(v) = self {
            v.put(out);
        }
    }
    #[inline(always)]
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        if bool::get(r)? {
            T::get(r).map(Some)
        } else {
            Ok(None)
        }
    }
}

/// Longest string field the wire decoder accepts, in bytes.
const MAX_STR_LEN: usize = 4096;

/// Escaped in JSON; a `u32` byte length then the UTF-8 bytes on the
/// wire.
impl Field for String {
    fn write_json(&self, out: &mut String) {
        out.push_str(&crate::json::quote(self));
    }
    fn put(&self, out: &mut Vec<u8>) {
        (self.len() as u32).put(out);
        out.extend_from_slice(self.as_bytes());
    }
    #[inline(always)]
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let len = u32::get(r)? as usize;
        if len > MAX_STR_LEN {
            return Err(WireError::BadLength(len as u64));
        }
        String::from_utf8(r.take(len)?.to_vec()).map_err(|_| WireError::BadString)
    }
}

/// A fieldless enum whose variants are listed once with their stable
/// lowercase tags. The tag is the JSON value; the variant's position is
/// its one-byte wire tag.
macro_rules! tag_enum {
    ($(#[$meta:meta])* $name:ident {
        $($(#[$vmeta:meta])* $variant:ident = $tag:literal,)*
    }) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum $name {
            $($(#[$vmeta])* $variant,)*
        }

        impl $name {
            /// Stable lowercase tag used in exports.
            pub fn tag(self) -> &'static str {
                match self {
                    $($name::$variant => $tag,)*
                }
            }
        }

        impl Field for $name {
            fn write_json(&self, out: &mut String) {
                out.push('"');
                out.push_str(self.tag());
                out.push('"');
            }
            fn put(&self, out: &mut Vec<u8>) {
                out.push(*self as u8);
            }
            #[inline(always)]
            fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
                let t = r.u8()?;
                [$($name::$variant),*]
                    .get(usize::from(t))
                    .copied()
                    .ok_or(WireError::BadTag(t))
            }
        }
    };
}

tag_enum! {
    /// What a [`ObsEvent::NandOp`] span occupied.
    NandKind {
        /// Whole-page read (cell read + bus transfer).
        Read = "read",
        /// Whole-page program (bus transfer + cell program).
        Program = "program",
        /// One bus grant of a time-sliced transfer.
        BusGrant = "bus_grant",
        /// Cell-only occupancy (the chip half of a time-sliced op).
        ChipOccupy = "chip_occupy",
    }
}

tag_enum! {
    /// A ghost-superblock lifecycle transition (§3.6 of the paper).
    GsbKind {
        /// `Make_Harvestable` materialized a new gSB into the pool.
        Created = "created",
        /// A harvester acquired the gSB (`Harvest`).
        Harvested = "harvested",
        /// The harvester released the gSB back (level decrease).
        Released = "released",
        /// The home vSSD asked for it back; live data drains through GC.
        ReclaimRequested = "reclaim_requested",
        /// The gSB's last block was returned; it no longer exists.
        Destroyed = "destroyed",
    }
}

tag_enum! {
    /// A model-lifecycle action (checkpoint management in `fleetio-model`).
    ModelKind {
        /// A checkpoint was written (atomic tmp + sync + rename).
        Saved = "saved",
        /// A checkpoint was decoded and a trainer/agent restored from it.
        Loaded = "loaded",
        /// The trainer was rolled back to the last-good snapshot after a
        /// reward regression.
        RolledBack = "rolled_back",
        /// A checkpoint failed verification (bad magic/CRC/truncation).
        CorruptDetected = "corrupt_detected",
    }
}

tag_enum! {
    /// Which hotspot rule was the binding constraint when the control
    /// plane planned a migration. A shard qualifies as hot only when it
    /// exceeds **both** the absolute utilization threshold and the
    /// spread-factor multiple of the fleet mean; the cause names the rule
    /// with the smaller margin — the one that would have released the
    /// shard first.
    MigrationCause {
        /// The absolute `hot_util` threshold was the tighter bound.
        HotUtil = "hot_util",
        /// The `spread_factor × mean` bound was the tighter one.
        SpreadFactor = "spread_factor",
    }
}

/// Generates [`ObsEvent`] and its per-kind code from the schema table.
/// Each kind's first field is its primary timestamp ([`ObsEvent::at`]).
macro_rules! obs_events {
    ($(
        $(#[$vmeta:meta])*
        $variant:ident = $tag:literal {
            $(#[$at_meta:meta])* $at:ident: $at_ty:ty,
            $($(#[$fmeta:meta])* $field:ident: $ty:ty,)*
        }
    )*) => {
        /// One structured observability record. All timestamps are
        /// simulated time.
        #[derive(Debug, Clone, PartialEq)]
        pub enum ObsEvent {
            $($(#[$vmeta])* $variant {
                $(#[$at_meta])* $at: $at_ty,
                $($(#[$fmeta])* $field: $ty,)*
            },)*
        }

        /// Table positions; a kind's index is its variant's position.
        #[repr(u8)]
        enum Kind {
            $($variant,)*
        }

        #[allow(non_upper_case_globals)]
        mod kind {
            $(pub(super) const $variant: u8 = super::Kind::$variant as u8;)*
        }

        impl ObsEvent {
            /// Stable `type` tags indexed by [`ObsEvent::kind_index`].
            pub const KIND_TAGS: [&'static str; [$($tag),*].len()] = [$($tag),*];

            /// Stable dense index of the event's kind, `0..KIND_TAGS.len()`.
            /// Doubles as the binary wire tag ([`crate::wire`]) and the
            /// bit position in the run store's per-segment kind bitmap —
            /// never renumber released values; append new kinds at the end.
            pub fn kind_index(&self) -> u8 {
                match self {
                    $(ObsEvent::$variant { .. } => kind::$variant,)*
                }
            }

            /// The event's primary timestamp (span events use their start).
            pub fn at(&self) -> SimTime {
                match *self {
                    $(ObsEvent::$variant { $at, .. } => $at,)*
                }
            }

            /// Appends the event's one-line JSON encoding (no trailing
            /// newline).
            pub fn write_json(&self, out: &mut String) {
                out.push_str("{\"type\":\"");
                out.push_str(self.tag());
                out.push('"');
                match self {
                    $(ObsEvent::$variant { $at, $($field,)* } => {
                        json_field(out, stringify!($at), $at);
                        $(json_field(out, stringify!($field), $field);)*
                    })*
                }
                out.push('}');
            }

            /// Appends the fields' wire bytes in table order.
            pub(crate) fn put_fields(&self, out: &mut Vec<u8>) {
                match self {
                    $(ObsEvent::$variant { $at, $($field,)* } => {
                        $at.put(out);
                        $($field.put(out);)*
                    })*
                }
            }

            /// Reads the fields of kind `kind` in table order. Inlined
            /// into `wire::decode_event`, whose cost it dominates.
            #[inline(always)]
            pub(crate) fn read_fields(kind: u8, r: &mut Reader<'_>) -> Result<Self, WireError> {
                Ok(match kind {
                    $(kind::$variant => ObsEvent::$variant {
                        $at: Field::get(r)?,
                        $($field: Field::get(r)?,)*
                    },)*
                    t => return Err(WireError::BadTag(t)),
                })
            }
        }
    };
}

fn json_field<T: Field>(out: &mut String, key: &str, v: &T) {
    out.push_str(",\"");
    out.push_str(key);
    out.push_str("\":");
    v.write_json(out);
}

obs_events! {
    /// A host request entered the engine (`Engine::submit`).
    RequestSubmit = "request_submit" {
        /// Arrival time the request was stamped with.
        at: SimTime,
        /// Engine-assigned request id.
        req: u64,
        /// Owning vSSD.
        vssd: u32,
        /// Read (`true`) or write.
        read: bool,
        /// Request length in bytes.
        bytes: u64,
    }
    /// The request's arrival was processed and its page ops were queued.
    RequestAdmit = "request_admit" {
        /// Admission time.
        at: SimTime,
        /// Engine-assigned request id.
        req: u64,
        /// Owning vSSD.
        vssd: u32,
        /// Page operations the request fanned out into.
        pages: u32,
    }
    /// One of the request's page ops was issued to a chip.
    ChipIssue = "chip_issue" {
        /// Issue time.
        at: SimTime,
        /// Engine-assigned request id.
        req: u64,
        /// Owning vSSD.
        vssd: u32,
        /// Flash channel the op was issued on.
        channel: u16,
        /// Chip behind that channel.
        chip: u16,
        /// Read (`true`) or program.
        read: bool,
    }
    /// The request's last page op finished.
    RequestComplete = "request_complete" {
        /// Completion time.
        at: SimTime,
        /// Engine-assigned request id.
        req: u64,
        /// Owning vSSD.
        vssd: u32,
        /// Read (`true`) or write.
        read: bool,
        /// Request length in bytes.
        bytes: u64,
        /// Original arrival time (latency = `at - arrival`).
        arrival: SimTime,
        /// First time any of its ops touched hardware.
        service_start: SimTime,
    }
    /// A NAND-level occupancy span (device timing, one track per
    /// channel/chip in the Chrome exporter).
    NandOp = "nand_op" {
        /// When the op began occupying its first resource.
        start: SimTime,
        /// When it released its last resource.
        end: SimTime,
        /// vSSD the op was issued for.
        vssd: u32,
        /// Flash channel.
        channel: u16,
        /// Chip behind that channel.
        chip: u16,
        /// What the span occupied.
        kind: NandKind,
        /// Whether this was internal GC traffic.
        gc: bool,
        /// Bytes moved (0 for cell-only occupancy).
        bytes: u64,
    }
    /// A garbage-collection job started on `(channel, chip)`.
    GcStart = "gc_start" {
        /// Start time.
        at: SimTime,
        /// Job id, or `None` for the synchronous emergency path.
        job: Option<u64>,
        /// vSSD owning the victim block's resources.
        vssd: u32,
        /// Victim channel.
        channel: u16,
        /// Victim chip.
        chip: u16,
        /// Live pages that must migrate.
        live_pages: u32,
        /// Whether this was an out-of-space emergency collection.
        emergency: bool,
    }
    /// A garbage-collection job finished (victim erased and released).
    GcEnd = "gc_end" {
        /// Completion time.
        at: SimTime,
        /// Job id.
        job: u64,
        /// vSSD owning the victim block's resources.
        vssd: u32,
        /// Victim channel.
        channel: u16,
        /// Victim chip.
        chip: u16,
        /// Wall-to-wall busy time of the job.
        busy: SimDuration,
    }
    /// A ghost-superblock transition.
    GsbTransition = "gsb" {
        /// Transition time.
        at: SimTime,
        /// gSB id.
        gsb: u64,
        /// Home vSSD (resource owner).
        home: u32,
        /// Harvester, when one is attached.
        harvester: Option<u32>,
        /// Which transition.
        kind: GsbKind,
        /// Channels the gSB spans.
        channels: u16,
    }
    /// Every runnable op on a channel was token-bucket blocked; a retry
    /// was scheduled.
    Throttle = "throttle" {
        /// When the dispatcher gave up.
        at: SimTime,
        /// The starved channel.
        channel: u16,
        /// Earliest token-availability time (the retry time).
        until: SimTime,
    }
    /// A per-vSSD statistics window was frozen (`Engine::finish_window`).
    WindowFlush = "window_flush" {
        /// Window end time.
        at: SimTime,
        /// vSSD the window belongs to.
        vssd: u32,
        /// Average bandwidth over the window, bytes/s.
        avg_bandwidth: f64,
        /// Average operations per second.
        avg_iops: f64,
        /// P99 request latency.
        p99_latency: SimDuration,
        /// Fraction of requests violating the SLO.
        slo_violation_rate: f64,
        /// Fraction of the window with GC active.
        gc_busy_frac: f64,
        /// Bytes moved in the window.
        total_bytes: u64,
        /// Operations completed in the window.
        total_ops: u64,
    }
    /// A model checkpoint was saved, loaded or rolled back
    /// (`fleetio-model`). Timestamped in simulated time because autosaves
    /// ride the sim-time cadence of online fine-tuning.
    ModelLifecycle = "model" {
        /// When the lifecycle action happened (sim time of the driving
        /// training loop; [`SimTime::ZERO`] for offline tooling).
        at: SimTime,
        /// Which action.
        kind: ModelKind,
        /// Registry tag of the checkpoint (`fleetio-model` keeps it
        /// within `[a-z0-9_-]`).
        tag: String,
        /// Trainer update counter at the time of the action.
        update: u64,
    }
    /// A per-tenant SLO verdict for one decision window, emitted at the
    /// fleet's serial window merge.
    SloWindow = "slo_window" {
        /// Window end time on the tenant's resident shard.
        at: SimTime,
        /// Fleet-wide tenant index.
        tenant: u32,
        /// Window index (0-based).
        window: u32,
        /// Operations completed this window.
        ops: u64,
        /// Exact-bucket p95 latency (zero when idle).
        p95: SimDuration,
        /// Exact-bucket p99 latency (zero when idle).
        p99: SimDuration,
        /// Average throughput over the window, bytes/s.
        throughput: f64,
        /// p95 within target.
        p95_ok: bool,
        /// p99 within target.
        p99_ok: bool,
        /// Throughput at or above the floor.
        throughput_ok: bool,
        /// Rolling violation fraction after this window (burn rate).
        burn: f64,
    }
    /// A tenant migration executed at a window boundary, with the
    /// hotspot-rule cause and the utilizations the planner saw.
    FleetMigration = "fleet_migration" {
        /// Execution time (the boundary entering the next window).
        at: SimTime,
        /// Window whose statistics planned the move.
        window: u32,
        /// The migrated tenant.
        tenant: u32,
        /// Source shard index.
        from_shard: u32,
        /// Source slot within the shard.
        from_slot: u32,
        /// Destination shard index.
        to_shard: u32,
        /// Destination slot within the shard.
        to_slot: u32,
        /// Which hotspot rule was the binding constraint.
        cause: MigrationCause,
        /// Fleet mean utilization when the move was planned.
        mean_util: f64,
        /// Source-shard utilization before the move.
        src_util: f64,
        /// Destination-shard utilization before the move.
        dst_util: f64,
        /// Projected source utilization after the move.
        src_util_after: f64,
        /// Projected destination utilization after the move.
        dst_util_after: f64,
    }
}

impl ObsEvent {
    /// Looks up a kind index by its stable `type` tag (CLI filters).
    pub fn kind_index_of_tag(tag: &str) -> Option<u8> {
        Self::KIND_TAGS
            .iter()
            .position(|t| *t == tag)
            .map(|i| i as u8)
    }

    /// Stable `type` tag of the event's JSONL encoding.
    pub fn tag(&self) -> &'static str {
        Self::KIND_TAGS[usize::from(self.kind_index())]
    }

    /// The event's one-line JSON encoding.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(128);
        self.write_json(&mut s);
        s
    }
}

/// One event of every kind, with both branches of every `Option`
/// field: the shared input of the codec tests.
#[cfg(test)]
pub(crate) fn sample_events() -> Vec<ObsEvent> {
    vec![
        ObsEvent::RequestSubmit {
            at: SimTime::from_micros(3),
            req: 7,
            vssd: 1,
            read: true,
            bytes: 4096,
        },
        ObsEvent::RequestAdmit {
            at: SimTime::from_micros(4),
            req: 7,
            vssd: 1,
            pages: 2,
        },
        ObsEvent::ChipIssue {
            at: SimTime::from_micros(5),
            req: 7,
            vssd: 1,
            channel: 3,
            chip: 2,
            read: false,
        },
        ObsEvent::RequestComplete {
            at: SimTime::from_micros(9),
            req: 7,
            vssd: 1,
            read: false,
            bytes: 512,
            arrival: SimTime::from_micros(3),
            service_start: SimTime::from_micros(5),
        },
        ObsEvent::NandOp {
            start: SimTime::ZERO,
            end: SimTime::from_micros(5),
            vssd: 0,
            channel: 0,
            chip: 0,
            kind: NandKind::BusGrant,
            gc: true,
            bytes: 4096,
        },
        ObsEvent::GcStart {
            at: SimTime::ZERO,
            job: None,
            vssd: 0,
            channel: 0,
            chip: 0,
            live_pages: 3,
            emergency: true,
        },
        ObsEvent::GcStart {
            at: SimTime::from_micros(1),
            job: Some(11),
            vssd: 0,
            channel: 0,
            chip: 1,
            live_pages: 9,
            emergency: false,
        },
        ObsEvent::GcEnd {
            at: SimTime::from_millis(1),
            job: 4,
            vssd: 0,
            channel: 0,
            chip: 0,
            busy: SimDuration::from_micros(800),
        },
        ObsEvent::GsbTransition {
            at: SimTime::ZERO,
            gsb: 1,
            home: 0,
            harvester: Some(1),
            kind: GsbKind::Harvested,
            channels: 2,
        },
        ObsEvent::GsbTransition {
            at: SimTime::from_micros(2),
            gsb: 1,
            home: 0,
            harvester: None,
            kind: GsbKind::Created,
            channels: 2,
        },
        ObsEvent::Throttle {
            at: SimTime::ZERO,
            channel: 3,
            until: SimTime::from_micros(50),
        },
        ObsEvent::WindowFlush {
            at: SimTime::from_secs(2),
            vssd: 1,
            avg_bandwidth: 1.5e8,
            avg_iops: 4000.0,
            p99_latency: SimDuration::from_micros(900),
            slo_violation_rate: 0.01,
            gc_busy_frac: f64::NAN,
            total_bytes: 1 << 30,
            total_ops: 12345,
        },
        ObsEvent::ModelLifecycle {
            at: SimTime::from_secs(3),
            kind: ModelKind::RolledBack,
            tag: "lc1".to_string(),
            update: 42,
        },
        ObsEvent::SloWindow {
            at: SimTime::from_secs(4),
            tenant: 17,
            window: 3,
            ops: 900,
            p95: SimDuration::from_micros(850),
            p99: SimDuration::from_millis(3),
            throughput: 2.5e7,
            p95_ok: true,
            p99_ok: false,
            throughput_ok: true,
            burn: 0.25,
        },
        ObsEvent::FleetMigration {
            at: SimTime::from_secs(5),
            window: 4,
            tenant: 17,
            from_shard: 2,
            from_slot: 1,
            to_shard: 7,
            to_slot: 0,
            cause: MigrationCause::SpreadFactor,
            mean_util: 0.22,
            src_util: 0.81,
            dst_util: 0.05,
            src_util_after: 0.44,
            dst_util_after: 0.42,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn submit_encodes_all_fields() {
        let ev = ObsEvent::RequestSubmit {
            at: SimTime::from_micros(3),
            req: 7,
            vssd: 1,
            read: true,
            bytes: 4096,
        };
        assert_eq!(
            ev.to_json(),
            "{\"type\":\"request_submit\",\"at\":3000,\"req\":7,\"vssd\":1,\
             \"read\":true,\"bytes\":4096}"
        );
        assert_eq!(ev.at(), SimTime::from_micros(3));
    }

    #[test]
    fn every_event_parses_as_json() {
        for ev in sample_events() {
            let line = ev.to_json();
            let v = crate::json::parse(&line).unwrap_or_else(|e| panic!("{line}: {e}"));
            let obj = v.as_object().expect("event encodes as a JSON object");
            assert_eq!(
                obj.get("type").and_then(|t| t.as_str()),
                Some(ev.tag()),
                "{line}"
            );
            let idx = usize::from(ev.kind_index());
            assert_eq!(ObsEvent::KIND_TAGS[idx], ev.tag());
            assert_eq!(ObsEvent::kind_index_of_tag(ev.tag()), Some(idx as u8));
        }
    }

    /// Pins the exact wire and JSONL bytes of every kind, so a change
    /// to how the codecs are written cannot change what they write.
    #[test]
    fn sample_encodings_are_byte_stable() {
        let mut wire = Vec::new();
        let mut jsonl = String::new();
        for ev in sample_events() {
            crate::wire::encode_event(&ev, &mut wire);
            ev.write_json(&mut jsonl);
            jsonl.push('\n');
        }
        let fnv = fleetio_des::hash::fnv1a64;
        assert_eq!((wire.len(), fnv(&wire)), (550, 0x2e24_7f72_432f_32c4));
        assert_eq!(
            (jsonl.len(), fnv(jsonl.as_bytes())),
            (1_658, 0x0433_a5c3_d07e_08b7)
        );
    }

    #[test]
    fn string_fields_are_escaped() {
        let tag = "a\"b\n\u{1}";
        let ev = ObsEvent::ModelLifecycle {
            at: SimTime::ZERO,
            kind: ModelKind::Saved,
            tag: tag.to_string(),
            update: 1,
        };
        let line = ev.to_json();
        let v = crate::json::parse(&line).unwrap_or_else(|e| panic!("{line}: {e}"));
        let obj = v.as_object().expect("event encodes as a JSON object");
        assert_eq!(obj.get("tag").and_then(|t| t.as_str()), Some(tag));
    }
}
