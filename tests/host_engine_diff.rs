//! Differential test of the host engine: the production `HostEngine`
//! against the reference copy in `host_engine_ref/` (the engine before
//! shift/mask indexing, branch-site stepping, cost tables and branch-free
//! accumulation). Both engines see the same fuzzed streams — the
//! production one through the packed `TraceEvent` replay path — and must
//! agree on every `HostRunStats` field, `f64`s compared by `to_bits`.
//!
//! The streams stay within what the reference handles without overflow:
//! no data reference reaches the last line of the address space.

mod host_engine_ref;

use hostmodel::{CacheGeom, HostConfig, HostEngine, HostRunStats};
use hosttrace::record::{replay, Event, TraceEvent};
use hosttrace::{DataRef, ExecRecord, FunctionId, Registry, TraceSink};
use platforms::{firesim, PlatformId, SystemKnobs};
use std::sync::Arc;
use testkit::{run_cases, Gen};

/// Every field of the stats as raw bits, named for the failure message.
/// Destructured exhaustively, so a new field fails to compile here until
/// it is compared.
fn bits(s: &HostRunStats) -> Vec<(&'static str, u64)> {
    let HostRunStats {
        name: _,
        cycles,
        uops,
        instructions,
        freq_ghz,
        topdown,
        l1i_accesses,
        l1i_miss_rate,
        l1d_accesses,
        l1d_miss_rate,
        itlb_miss_rate,
        dtlb_miss_rate,
        branch_lookups,
        branch_mispredict_rate,
        unknown_branches,
        dsb_coverage,
        llc_occupancy_bytes,
        dram_bytes,
        records,
    } = s;
    let t = topdown;
    vec![
        ("cycles", cycles.to_bits()),
        ("uops", *uops),
        ("instructions", instructions.to_bits()),
        ("freq_ghz", freq_ghz.to_bits()),
        ("retiring", t.retiring.to_bits()),
        ("fe_latency.icache", t.fe_latency.icache.to_bits()),
        ("fe_latency.itlb", t.fe_latency.itlb.to_bits()),
        (
            "fe_latency.mispredict_resteers",
            t.fe_latency.mispredict_resteers.to_bits(),
        ),
        (
            "fe_latency.clear_resteers",
            t.fe_latency.clear_resteers.to_bits(),
        ),
        (
            "fe_latency.unknown_branches",
            t.fe_latency.unknown_branches.to_bits(),
        ),
        ("fe_bandwidth.mite", t.fe_bandwidth.mite.to_bits()),
        ("fe_bandwidth.dsb", t.fe_bandwidth.dsb.to_bits()),
        ("bad_speculation", t.bad_speculation.to_bits()),
        ("be_mem.l2", t.be_mem.l2.to_bits()),
        ("be_mem.llc", t.be_mem.llc.to_bits()),
        ("be_mem.dram", t.be_mem.dram.to_bits()),
        ("be_core", t.be_core.to_bits()),
        ("l1i_accesses", *l1i_accesses),
        ("l1i_miss_rate", l1i_miss_rate.to_bits()),
        ("l1d_accesses", *l1d_accesses),
        ("l1d_miss_rate", l1d_miss_rate.to_bits()),
        ("itlb_miss_rate", itlb_miss_rate.to_bits()),
        ("dtlb_miss_rate", dtlb_miss_rate.to_bits()),
        ("branch_lookups", *branch_lookups),
        ("branch_mispredict_rate", branch_mispredict_rate.to_bits()),
        ("unknown_branches", *unknown_branches),
        ("dsb_coverage", dsb_coverage.to_bits()),
        ("llc_occupancy_bytes", *llc_occupancy_bytes),
        ("dram_bytes", *dram_bytes),
        ("records", *records),
    ]
}

/// One host setup: a configuration and the binary model it runs.
struct Setup {
    label: String,
    config: HostConfig,
    reg: Arc<Registry>,
}

/// All three platforms under each knob set, a DSB-less RISC-V host, and
/// a host whose L1/L2 set counts are not powers of two.
fn setups() -> Vec<Setup> {
    let knob_sets = [
        "default",
        "thp",
        "ehp",
        "o3",
        "corun=per_core:2",
        "corun=per_thread:2",
    ];
    let mut out = Vec::new();
    for id in PlatformId::ALL {
        let platform = id.platform();
        for spec in knob_sets {
            let knobs = SystemKnobs::parse(spec).expect("valid knobs");
            out.push(Setup {
                label: format!("{} / {spec}", id.name()),
                config: knobs.apply(&platform.config),
                reg: Arc::new(Registry::new(knobs.binary, knobs.backing)),
            });
        }
    }
    let base = Arc::new(Registry::new(
        hosttrace::BinaryVariant::Base,
        hosttrace::PageBacking::Base,
    ));
    let no_dsb = firesim::base();
    assert_eq!(no_dsb.dsb_uops, 0);
    out.push(Setup {
        label: "firesim (no DSB)".into(),
        config: no_dsb,
        reg: Arc::clone(&base),
    });
    // 48-set L1s and a 768-set L2: the division indexing path.
    let odd = firesim::config(
        CacheGeom {
            size: 12 * 1024,
            assoc: 4,
        },
        CacheGeom {
            size: 24 * 1024,
            assoc: 8,
        },
        CacheGeom {
            size: 384 * 1024,
            assoc: 8,
        },
    );
    out.push(Setup {
        label: "odd set counts".into(),
        config: odd,
        reg: base,
    });
    out
}

fn exec(g: &mut Gen, funcs: u32) -> ExecRecord {
    ExecRecord {
        func: FunctionId(g.u32_in(0..funcs)),
        uops: g.u16_in(0..120),
        cond_branches: g.u8_in(0..8),
        indirect_branches: g.u8_in(0..3),
        loads: g.u8_in(0..10),
        stores: g.u8_in(0..5),
        variant: g.u32_in(0..5000),
    }
}

/// Simulator-state touches: sequential walks (prefetched), strided and
/// scattered ones, mostly within a line.
fn data(g: &mut Gen, cursor: &mut u64) -> DataRef {
    *cursor = match g.u8_in(0..4) {
        0 => 0x10_0000_0000 + g.u64_in(0..1 << 24),
        1 => *cursor + g.u64_in(0..512),
        _ => *cursor + 8,
    };
    DataRef {
        addr: *cursor,
        bytes: *g.pick(&[1, 4, 8, 16, 32, 64]),
        write: g.bool(),
    }
}

/// A typical mix: exec records and data touches interleaved.
fn mixed(g: &mut Gen, funcs: u32) -> Vec<Event> {
    let mut cursor = 0x10_0000_0000;
    (0..g.usize_in(2_000..4_000))
        .map(|_| {
            if g.u8_in(0..3) == 0 {
                Event::Data(data(g, &mut cursor))
            } else {
                Event::Exec(exec(g, funcs))
            }
        })
        .collect()
}

/// Every field at or near its limits.
fn extreme(g: &mut Gen, funcs: u32) -> Vec<Event> {
    let mut out = Vec::new();
    for _ in 0..g.usize_in(150..300) {
        let (any_func, any_variant) = (g.u32_in(0..funcs), g.u32_in(0..u32::MAX));
        let ev = match g.u8_in(0..4) {
            0 => Event::Exec(ExecRecord {
                func: FunctionId(*g.pick(&[0, funcs - 1, any_func])),
                uops: *g.pick(&[0, 1, u16::MAX, u16::MAX - 1]),
                cond_branches: *g.pick(&[0, u8::MAX]),
                indirect_branches: *g.pick(&[0, u8::MAX]),
                loads: *g.pick(&[0, u8::MAX]),
                stores: *g.pick(&[0, u8::MAX]),
                variant: *g.pick(&[0, u32::MAX, u32::MAX - 1, any_variant]),
            }),
            1 => Event::Exec(ExecRecord {
                variant: u32::MAX - g.u32_in(0..64),
                ..exec(g, funcs)
            }),
            // Address extremes: the bottom of the address space and the
            // top, short of the last line.
            2 => Event::Data(DataRef {
                addr: *g.pick(&[0, 1, 63, u64::MAX - (1 << 20), u64::MAX - (1 << 17) + 1]),
                bytes: *g.pick(&[0, 1, 64, 65, 65_536]),
                write: g.bool(),
            }),
            _ => Event::Data(DataRef {
                addr: g.u64_in(0..u64::MAX - (1 << 20)),
                bytes: *g.pick(&[0, 1, 4096]),
                write: g.bool(),
            }),
        };
        out.push(ev);
    }
    out
}

/// Long runs of one function with consecutive variants (a hot loop), with
/// an occasional other function in between.
fn one_function_runs(g: &mut Gen, funcs: u32) -> Vec<Event> {
    let mut out = Vec::new();
    for _ in 0..g.usize_in(3..6) {
        let f = exec(g, funcs);
        let first = g.u32_in(0..1 << 20);
        for v in 0..g.u32_in(300..800) {
            out.push(Event::Exec(ExecRecord {
                variant: first + v,
                ..f
            }));
        }
        out.push(Event::Exec(exec(g, funcs)));
    }
    out
}

/// Data references spanning many lines, unaligned, in both directions
/// relative to the previous one (exercises the prefetch window).
fn multi_line_refs(g: &mut Gen, _funcs: u32) -> Vec<Event> {
    let mut addr = 0x10_0000_0000 + g.u64_in(0..4096);
    (0..g.usize_in(400..800))
        .map(|_| {
            addr = match g.u8_in(0..3) {
                0 => addr.wrapping_sub(g.u64_in(0..8192)).max(0x10_0000_0000),
                _ => addr + g.u64_in(0..1024),
            };
            Event::Data(DataRef {
                addr,
                bytes: g.u32_in(0..16_384),
                write: g.bool(),
            })
        })
        .collect()
}

/// Exec records between sweeps of a data window larger than L1 (and
/// sometimes than L2), so function-local lines are evicted and refill
/// from every level of the hierarchy, loads and stores alike.
fn cache_pressure(g: &mut Gen, funcs: u32) -> Vec<Event> {
    let window = *g.pick(&[256 << 10, 4 << 20, 64 << 20]);
    let mut cursor = 0;
    let mut out = Vec::new();
    for _ in 0..g.usize_in(40..80) {
        for _ in 0..g.usize_in(1..4) {
            out.push(Event::Exec(exec(g, funcs)));
        }
        for _ in 0..g.usize_in(300..1200) {
            cursor = (cursor + 64 * g.u64_in(1..9)) % window;
            out.push(Event::Data(DataRef {
                addr: 0x10_0000_0000 + cursor,
                bytes: 64,
                write: g.bool(),
            }));
        }
    }
    out
}

fn compare(setup: &Setup, stream: &[Event]) -> Result<(), String> {
    let packed: Vec<TraceEvent> = stream
        .iter()
        .map(|ev| match *ev {
            Event::Exec(r) => TraceEvent::exec(r),
            Event::Data(d) => TraceEvent::data(d),
        })
        .collect();
    let mut new = HostEngine::new(setup.config.clone(), Arc::clone(&setup.reg));
    replay(&packed, &mut new);
    let mut reference =
        host_engine_ref::engine::HostEngine::new(setup.config.clone(), Arc::clone(&setup.reg));
    for ev in stream {
        match *ev {
            Event::Exec(r) => reference.exec(r),
            Event::Data(d) => reference.data(d),
        }
    }
    let (new, reference) = (new.finish(), reference.finish());
    for ((field, got), (_, want)) in bits(&new).into_iter().zip(bits(&reference)) {
        if got != want {
            return Err(format!(
                "{}: {field} differs: {got:#x} vs reference {want:#x}\n{new:?}\n{reference:?}",
                setup.label
            ));
        }
    }
    Ok(())
}

fn check_shape(name: &str, cases: u32, shape: fn(&mut Gen, u32) -> Vec<Event>) {
    let setups = setups();
    run_cases(name, cases, |g| {
        for setup in &setups {
            let stream = shape(g, setup.reg.len() as u32);
            compare(setup, &stream)?;
        }
        Ok(())
    });
}

#[test]
fn engines_agree_bit_for_bit_on_mixed_streams() {
    check_shape("engines_agree_bit_for_bit_on_mixed_streams", 4, mixed);
}

#[test]
fn engines_agree_bit_for_bit_at_field_extremes() {
    check_shape("engines_agree_bit_for_bit_at_field_extremes", 2, extreme);
}

#[test]
fn engines_agree_bit_for_bit_on_runs_of_one_function() {
    check_shape(
        "engines_agree_bit_for_bit_on_runs_of_one_function",
        2,
        one_function_runs,
    );
}

#[test]
fn engines_agree_bit_for_bit_on_multi_line_data_refs() {
    check_shape(
        "engines_agree_bit_for_bit_on_multi_line_data_refs",
        2,
        multi_line_refs,
    );
}

#[test]
fn engines_agree_bit_for_bit_under_cache_pressure() {
    check_shape(
        "engines_agree_bit_for_bit_under_cache_pressure",
        2,
        cache_pressure,
    );
}

#[test]
fn setups_cover_dsb_and_division_paths() {
    let setups = setups();
    assert_eq!(setups.len(), 3 * 6 + 2);
    assert!(setups.iter().any(|s| s.config.dsb_uops > 0));
    assert!(setups.iter().any(|s| s.config.dsb_uops == 0));
    let sets = |g: CacheGeom, line: u64| g.size / (g.assoc * line);
    assert!(setups.iter().any(|s| {
        let c = &s.config;
        [c.l1i, c.l1d, c.l2, c.llc]
            .iter()
            .any(|&g| !sets(g, c.line).is_power_of_two())
    }));
}
