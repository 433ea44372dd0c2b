//! The bridge from simulator instrumentation to the host instruction
//! stream.

use crate::profile::CallProfile;
use crate::record::{DataRef, ExecRecord, TraceSink};
use crate::registry::Registry;
use crate::{mix2, mix64};
use gem5sim::observe::{CompClass, ExecutionObserver, HandlerCall};
use std::sync::Arc;

/// Base host virtual address of the simulator's heap-allocated state
/// (SimObject storage). Each component class gets a 256 MB region, each
/// object instance a 1 MB slice.
pub const DATA_SEG_BASE: u64 = 0x10_0000_0000;

/// Translates [`HandlerCall`]s into [`ExecRecord`] streams.
///
/// Every handler invocation becomes: one call of its primary function
/// (entered through virtual dispatch — one indirect branch), followed by a
/// deterministic fan-out of helper calls proportional to the handler's
/// work — parameter checks, packet methods, event (de)scheduling, stat
/// updates, and (30% of the time) allocator/stdlib traffic. This is the
/// call-tree shape VTune observes under each gem5 handler.
#[derive(Debug)]
pub struct TraceAdapter<S> {
    registry: Arc<Registry>,
    sink: S,
    profile: CallProfile,
    /// Per-component work multipliers (the Sec. VI accelerator study:
    /// what if this component's host work were offloaded/specialized?).
    work_scale: [f32; 16],
}

impl<S: TraceSink> TraceAdapter<S> {
    /// Creates the adapter.
    pub fn new(registry: Arc<Registry>, sink: S) -> Self {
        let profile = CallProfile::new(&registry);
        TraceAdapter {
            registry,
            sink,
            profile,
            work_scale: [1.0; 16],
        }
    }

    /// Scales the host work of one component class by `factor` — models
    /// specializing/offloading that component (the paper's Sec. VI
    /// discussion). `factor = 0.1` models a 10x-accelerated component;
    /// values above 1 model de-optimization.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not positive.
    pub fn set_work_scale(&mut self, comp: CompClass, factor: f32) {
        assert!(factor > 0.0, "work scale must be positive");
        self.work_scale[comp as usize] = factor;
    }

    /// The call profile accumulated so far.
    pub fn profile(&self) -> &CallProfile {
        &self.profile
    }

    /// The shared binary model.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// Consumes the adapter, returning `(sink, profile)`.
    pub fn into_parts(self) -> (S, CallProfile) {
        (self.sink, self.profile)
    }
}

impl<S: TraceSink> ExecutionObserver for TraceAdapter<S> {
    fn call(&mut self, c: HandlerCall) {
        let scale = self.work_scale[c.comp as usize];
        let scaled = ((c.work as f32 * scale) as u32).clamp(4, u16::MAX as u32);
        let c = HandlerCall {
            work: scaled as u16,
            ..c
        };
        let work = c.work as u32;
        // Primary function: entered via virtual dispatch.
        let pfid = self.registry.primary(c.comp, c.method);
        let variant = self.profile.bump(pfid);
        self.sink.exec(ExecRecord {
            func: pfid,
            uops: c.work.max(8),
            cond_branches: (work / 5).clamp(1, 255) as u8,
            indirect_branches: 1 + (work / 64).min(3) as u8,
            loads: (work / 4).min(255) as u8,
            stores: (work / 7).min(255) as u8,
            variant,
        });

        // Helper fan-out.
        let n_helpers = (work / 18).max(1);
        for i in 0..n_helpers {
            let hfid = self.registry.helper(c.comp, c.method, i, variant);
            let hv = self.profile.bump(hfid);
            let h = mix2(hfid.0 as u64, hv as u64 >> 4);
            let uops = 6 + (h % 18) as u16;
            self.sink.exec(ExecRecord {
                func: hfid,
                uops,
                cond_branches: 1 + (mix64(h) % 3) as u8,
                indirect_branches: h.is_multiple_of(8) as u8,
                loads: 1 + (uops / 5) as u8,
                stores: (uops / 8) as u8,
                variant: hv,
            });
        }
    }

    fn data(&mut self, comp: CompClass, obj: u16, offset: u32, bytes: u16, write: bool) {
        let addr = DATA_SEG_BASE
            + (comp as u64) * 0x1000_0000
            + (obj as u64) * 0x10_0000
            + (offset as u64);
        self.sink.data(DataRef {
            addr,
            bytes: bytes as u32,
            write,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::PageBacking;
    use crate::record::CountingSink;
    use crate::registry::BinaryVariant;

    fn adapter() -> TraceAdapter<CountingSink> {
        let reg = Arc::new(Registry::new(BinaryVariant::Base, PageBacking::Base));
        TraceAdapter::new(reg, CountingSink::default())
    }

    #[test]
    fn handler_calls_fan_out() {
        let mut a = adapter();
        a.call(HandlerCall {
            comp: CompClass::CpuO3,
            method: "fetch_tick",
            obj: 0,
            work: 60,
        });
        // 1 primary + work/18 = 3 helpers
        assert_eq!(a.profile().total_calls(), 4);
        let (sink, profile) = a.into_parts();
        assert_eq!(sink.execs, 4);
        assert!(sink.uops >= 60 + 3 * 6);
        assert!(profile.functions_touched() >= 3);
    }

    #[test]
    fn repeated_calls_touch_more_functions_then_saturate() {
        let mut a = adapter();
        let mut touched = Vec::new();
        for round in 0..6 {
            for _ in 0..200 {
                a.call(HandlerCall {
                    comp: CompClass::Dcache,
                    method: "access",
                    obj: 0,
                    work: 30,
                });
            }
            touched.push(a.profile().functions_touched());
            let _ = round;
        }
        assert!(touched[1] > touched[0]);
        // Growth slows (coverage saturates).
        let d_early = touched[1] - touched[0];
        let d_late = touched[5] - touched[4];
        assert!(d_late < d_early, "{touched:?}");
    }

    #[test]
    fn data_addresses_partition_by_component_and_object() {
        let mut a = adapter();
        a.data(CompClass::Icache, 0, 0, 64, false);
        a.data(CompClass::Icache, 1, 0, 64, false);
        a.data(CompClass::Dram, 0, 0, 64, true);
        let sink = a.into_parts().0;
        assert_eq!(sink.datas, 3);
    }

    #[test]
    fn variants_increment_per_function() {
        let mut a = adapter();
        let call = HandlerCall {
            comp: CompClass::EventQueue,
            method: "serviceOne",
            obj: 0,
            work: 20,
        };
        a.call(call);
        a.call(call);
        // Primary was called twice.
        let reg = Arc::clone(a.registry());
        let pfid = reg.primary(CompClass::EventQueue, "serviceOne");
        let top = a.profile().hottest(&reg, 5);
        let name = reg.name(pfid);
        assert!(top.iter().any(|(n, c, _)| *n == name && *c == 2));
    }
}
