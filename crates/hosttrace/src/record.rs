//! The host instruction stream: record types and sinks.

use crate::registry::FunctionId;

/// One host *function invocation* with its block-level character.
///
/// The host microarchitecture model expands this into instruction-cache
/// line touches (from the function's code address/size in the
/// [`Registry`](crate::registry::Registry)), decode traffic, branch events
/// and local data accesses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecRecord {
    /// Which function ran.
    pub func: FunctionId,
    /// Host µops executed in this invocation.
    pub uops: u16,
    /// Conditional branches executed.
    pub cond_branches: u8,
    /// Indirect calls/jumps (virtual dispatch, function-pointer calls).
    pub indirect_branches: u8,
    /// Loads to function-local data (stack, locals).
    pub loads: u8,
    /// Stores to function-local data.
    pub stores: u8,
    /// Per-function invocation counter; drives deterministic branch
    /// outcome and target streams.
    pub variant: u32,
}

/// A host data reference into simulator state (tag arrays, ROB entries,
/// packet objects…).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DataRef {
    /// Host virtual address.
    pub addr: u64,
    /// Bytes touched.
    pub bytes: u32,
    /// Whether the touch writes.
    pub write: bool,
}

/// Consumer of the host instruction stream.
pub trait TraceSink {
    /// A function invocation.
    fn exec(&mut self, rec: ExecRecord);
    /// A simulator-state data touch.
    fn data(&mut self, dref: DataRef);
}

/// Discards everything.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullSink;

impl TraceSink for NullSink {
    fn exec(&mut self, _rec: ExecRecord) {}
    fn data(&mut self, _dref: DataRef) {}
}

/// Fans one stream out to several sinks, feeding them in one pass.
#[derive(Debug, Default)]
pub struct FanoutSink<S> {
    /// The downstream sinks.
    pub sinks: Vec<S>,
}

impl<S> FanoutSink<S> {
    /// Wraps the given sinks.
    pub fn new(sinks: Vec<S>) -> Self {
        FanoutSink { sinks }
    }

    /// Unwraps the sinks.
    pub fn into_inner(self) -> Vec<S> {
        self.sinks
    }
}

impl<S: TraceSink> TraceSink for FanoutSink<S> {
    fn exec(&mut self, rec: ExecRecord) {
        for s in &mut self.sinks {
            s.exec(rec);
        }
    }
    fn data(&mut self, dref: DataRef) {
        for s in &mut self.sinks {
            s.data(dref);
        }
    }
}

/// One event of the post-adapter host stream, unpacked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Event {
    /// A function invocation.
    Exec(ExecRecord),
    /// A simulator-state data touch.
    Data(DataRef),
}

/// One event of the post-adapter host stream, in order. The unit of
/// guest-trace memoization: a recorded `Vec<TraceEvent>` replays into any
/// number of host engines without re-running the guest simulation.
///
/// Packed losslessly into two words (16 bytes), tagged by bit 63 of the
/// second word:
///
/// | kind | word 0                  | word 1                                                   |
/// |------|-------------------------|----------------------------------------------------------|
/// | exec | `func` · `variant << 32` | `uops` · `cond << 16` · `indirect << 24` · `loads << 32` · `stores << 40` |
/// | data | `addr`                  | `bytes` · `write << 32` · `1 << 63`                      |
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent([u64; 2]);

const DATA_TAG: u64 = 1 << 63;

impl TraceEvent {
    /// Packs a function invocation.
    #[inline]
    pub fn exec(r: ExecRecord) -> Self {
        TraceEvent([
            r.func.0 as u64 | (r.variant as u64) << 32,
            r.uops as u64
                | (r.cond_branches as u64) << 16
                | (r.indirect_branches as u64) << 24
                | (r.loads as u64) << 32
                | (r.stores as u64) << 40,
        ])
    }

    /// Packs a data touch.
    #[inline]
    pub fn data(d: DataRef) -> Self {
        TraceEvent([d.addr, d.bytes as u64 | (d.write as u64) << 32 | DATA_TAG])
    }

    /// Unpacks the event.
    #[inline]
    pub fn unpack(self) -> Event {
        let [w0, w1] = self.0;
        if w1 & DATA_TAG != 0 {
            Event::Data(DataRef {
                addr: w0,
                bytes: w1 as u32,
                write: (w1 >> 32) & 1 != 0,
            })
        } else {
            Event::Exec(ExecRecord {
                func: FunctionId(w0 as u32),
                uops: w1 as u16,
                cond_branches: (w1 >> 16) as u8,
                indirect_branches: (w1 >> 24) as u8,
                loads: (w1 >> 32) as u8,
                stores: (w1 >> 40) as u8,
                variant: (w0 >> 32) as u32,
            })
        }
    }
}

/// Records the stream into memory, up to a cap.
///
/// Past `cap` events the recorder stops storing (and remembers that it
/// overflowed) instead of growing without bound — large guest simulations
/// are simply not cached rather than exhausting memory.
#[derive(Debug, Clone, Default)]
pub struct RecordingSink {
    events: Vec<TraceEvent>,
    cap: usize,
    overflowed: bool,
}

impl RecordingSink {
    /// A recorder that keeps at most `cap` events.
    pub fn with_cap(cap: usize) -> Self {
        RecordingSink {
            events: Vec::new(),
            cap,
            overflowed: false,
        }
    }

    /// Whether the stream exceeded the cap (the recording is incomplete
    /// and must not be replayed).
    pub fn overflowed(&self) -> bool {
        self.overflowed
    }

    /// The complete recorded stream, or `None` if it overflowed.
    pub fn into_events(self) -> Option<Vec<TraceEvent>> {
        if self.overflowed {
            None
        } else {
            Some(self.events)
        }
    }

    fn push(&mut self, ev: TraceEvent) {
        if self.overflowed {
            return;
        }
        if self.events.len() >= self.cap {
            self.overflowed = true;
            self.events = Vec::new();
            return;
        }
        self.events.push(ev);
    }
}

impl TraceSink for RecordingSink {
    fn exec(&mut self, rec: ExecRecord) {
        self.push(TraceEvent::exec(rec));
    }
    fn data(&mut self, dref: DataRef) {
        self.push(TraceEvent::data(dref));
    }
}

/// Replays a recorded stream into a sink, exactly as it was emitted.
pub fn replay<S: TraceSink>(events: &[TraceEvent], sink: &mut S) {
    for &ev in events {
        match ev.unpack() {
            Event::Exec(rec) => sink.exec(rec),
            Event::Data(dref) => sink.data(dref),
        }
    }
}

/// Counts records (tests and sanity checks).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CountingSink {
    /// exec records seen.
    pub execs: u64,
    /// data records seen.
    pub datas: u64,
    /// total µops seen.
    pub uops: u64,
}

impl TraceSink for CountingSink {
    fn exec(&mut self, rec: ExecRecord) {
        self.execs += 1;
        self.uops += rec.uops as u64;
    }
    fn data(&mut self, _dref: DataRef) {
        self.datas += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(uops: u16) -> ExecRecord {
        ExecRecord {
            func: FunctionId(0),
            uops,
            cond_branches: 2,
            indirect_branches: 1,
            loads: 3,
            stores: 1,
            variant: 0,
        }
    }

    #[test]
    fn fanout_duplicates_stream() {
        let mut f = FanoutSink::new(vec![CountingSink::default(); 3]);
        f.exec(rec(10));
        f.data(DataRef {
            addr: 0x1000,
            bytes: 64,
            write: false,
        });
        for s in f.into_inner() {
            assert_eq!(s.execs, 1);
            assert_eq!(s.datas, 1);
            assert_eq!(s.uops, 10);
        }
    }

    #[test]
    fn recording_then_replay_reproduces_the_stream() {
        let mut r = RecordingSink::with_cap(100);
        r.exec(rec(10));
        r.data(DataRef {
            addr: 0x2000,
            bytes: 8,
            write: true,
        });
        r.exec(rec(20));
        let events = r.into_events().expect("under cap");
        assert_eq!(events.len(), 3);
        let mut c = CountingSink::default();
        replay(&events, &mut c);
        assert_eq!((c.execs, c.datas, c.uops), (2, 1, 30));
    }

    #[test]
    fn recorder_overflow_discards_instead_of_growing() {
        let mut r = RecordingSink::with_cap(2);
        for _ in 0..5 {
            r.exec(rec(1));
        }
        assert!(r.overflowed());
        assert!(r.into_events().is_none());
    }

    #[test]
    fn packed_event_is_two_words() {
        assert_eq!(std::mem::size_of::<TraceEvent>(), 16);
    }

    #[test]
    fn packed_event_round_trips_every_field_at_its_limits() {
        let execs = [
            ExecRecord {
                func: FunctionId(u32::MAX),
                uops: u16::MAX,
                cond_branches: u8::MAX,
                indirect_branches: u8::MAX,
                loads: u8::MAX,
                stores: u8::MAX,
                variant: u32::MAX,
            },
            ExecRecord {
                func: FunctionId(0),
                uops: 0,
                cond_branches: 0,
                indirect_branches: 0,
                loads: 0,
                stores: 0,
                variant: 0,
            },
            // One field at its limit at a time: no field bleeds into a
            // neighbour or into the tag.
            ExecRecord {
                uops: u16::MAX,
                ..rec(0)
            },
            ExecRecord {
                cond_branches: u8::MAX,
                indirect_branches: 0,
                loads: u8::MAX,
                stores: 0,
                ..rec(1)
            },
            ExecRecord {
                cond_branches: 0,
                indirect_branches: u8::MAX,
                loads: 0,
                stores: u8::MAX,
                ..rec(1)
            },
            ExecRecord {
                func: FunctionId(u32::MAX),
                variant: 0,
                ..rec(1)
            },
            ExecRecord {
                func: FunctionId(0),
                variant: u32::MAX,
                ..rec(1)
            },
        ];
        for r in execs {
            assert_eq!(TraceEvent::exec(r).unpack(), Event::Exec(r), "{r:?}");
        }
        for addr in [0, 1, u64::MAX, u64::MAX >> 1, 1 << 63] {
            for bytes in [0, 1, u32::MAX] {
                for write in [false, true] {
                    let d = DataRef { addr, bytes, write };
                    assert_eq!(TraceEvent::data(d).unpack(), Event::Data(d), "{d:?}");
                }
            }
        }
    }

    #[test]
    fn null_sink_ignores() {
        let mut n = NullSink;
        n.exec(rec(5));
        n.data(DataRef {
            addr: 0,
            bytes: 1,
            write: true,
        });
    }
}
