//! Integration tests: run the analyses over binaries assembled with
//! the canonical compiler patterns, on all three architectures.

use icfgp_asm::patterns::{
    emit_indirect_call, emit_indirect_tailcall, emit_switch, switch_table_item, SwitchHardness,
    SwitchSpec,
};
use icfgp_asm::{epilogue, prologue, BinaryBuilder, DataItem, EntryKind, FuncDef, Item, RefTarget};
use icfgp_cfg::{
    analyze, AnalysisConfig, AnalysisFailure, EdgeKind, FpDefSite, FuncStatus, InjectedFault,
    TableKind,
};
use icfgp_isa::{AluOp, Arch, Cond, Inst, Reg, SysOp};
use icfgp_obj::{Binary, Language};

fn out(reg: u8) -> Item {
    Item::I(Inst::Sys { op: SysOp::Out, arg: Reg(reg) })
}

fn movi(reg: u8, v: i64) -> Item {
    Item::I(Inst::MovImm { dst: Reg(reg), imm: v })
}

/// A function with a 4-case switch using the given table shape.
fn switch_func(
    arch: Arch,
    name: &str,
    hardness: SwitchHardness,
    entry_width: u8,
    kind: EntryKind,
    inline: bool,
) -> (FuncDef, Option<DataItem>) {
    let cases = 4;
    let mut items = prologue(arch, 32, true);
    let spec = SwitchSpec {
        idx_reg: Reg(8),
        table_name: format!("{name}_jt"),
        case_labels: (0..cases).map(|i| format!("case{i}")).collect(),
        default_label: "default".to_string(),
        entry_width,
        kind,
        inline,
        hardness,
        spill_slot: 8,
        scratch: (Reg(9), Reg(10)),
        mem_indirect: false,
    };
    emit_switch(&mut items, arch, &spec);
    for i in 0..cases {
        items.push(Item::Label(format!("case{i}")));
        items.push(movi(8, 100 + i as i64));
        items.push(out(8));
        items.push(Item::JmpL("end".to_string()));
    }
    items.push(Item::Label("default".to_string()));
    items.push(movi(8, 0));
    items.push(out(8));
    items.push(Item::Label("end".to_string()));
    items.extend(epilogue(arch, 32, true));
    let table = (!inline).then(|| switch_table_item(name, &spec));
    (FuncDef::new(name, Language::C, items), table)
}

fn build_with_switch(
    arch: Arch,
    pie: bool,
    hardness: SwitchHardness,
    entry_width: u8,
    kind: EntryKind,
    inline: bool,
) -> Binary {
    let mut b = BinaryBuilder::new(arch);
    b.pie(pie);
    let (f, table) = switch_func(arch, "dispatch", hardness, entry_width, kind, inline);
    b.add_function(f);
    if let Some(t) = table {
        b.push_rodata(Some("dispatch_jt"), t);
        // A known data object right after the table bounds extension.
        b.push_rodata(Some("after_jt"), DataItem::Bytes(vec![0; 16]));
    }
    let mut main = prologue(arch, 16, false);
    main.push(movi(8, 2));
    main.push(Item::CallF("dispatch".to_string()));
    main.push(Item::I(Inst::Halt));
    b.add_function(FuncDef::new("main", Language::C, main));
    b.set_entry("main");
    b.build().expect("builds")
}

#[test]
fn easy_switch_resolves_on_all_arches() {
    for arch in Arch::ALL {
        // ppc64le uses inline 8-byte absolute tables; x64 rodata
        // absolute; aarch64 rodata 4-byte relative.
        let (width, kind, inline) = match arch {
            Arch::X64 => (8, EntryKind::Absolute, false),
            Arch::Ppc64le => (8, EntryKind::Absolute, true),
            Arch::Aarch64 => (4, EntryKind::Relative, false),
        };
        let bin = build_with_switch(arch, false, SwitchHardness::Easy, width, kind, inline);
        let a = analyze(&bin, &AnalysisConfig::default());
        let f = &a.funcs[&bin.function_named("dispatch").unwrap().addr];
        assert_eq!(f.status, FuncStatus::Ok, "{arch}");
        assert_eq!(f.jump_tables.len(), 1, "{arch}");
        let jt = &f.jump_tables[0];
        assert_eq!(jt.count, 4, "{arch}: exact bound recovered");
        assert!(!jt.extended, "{arch}");
        assert_eq!(jt.targets.len(), 4, "{arch}");
        assert_eq!(jt.in_text, inline, "{arch}");
        match (arch, jt.kind) {
            (Arch::X64 | Arch::Ppc64le, TableKind::Absolute) => {}
            (Arch::Aarch64, TableKind::Relative) => {}
            other => panic!("unexpected kind {other:?}"),
        }
        // The jump's block has 4 jump-table successors.
        let jb = f.block_at(jt.jump_addr).unwrap();
        assert_eq!(
            jb.succs.iter().filter(|e| e.kind == EdgeKind::JumpTable).count(),
            4,
            "{arch}"
        );
        assert!((a.coverage() - 1.0).abs() < 1e-9);
    }
}

#[test]
fn compact_scaled_table_resolves_on_aarch64() {
    let bin = build_with_switch(
        Arch::Aarch64,
        true,
        SwitchHardness::Easy,
        1,
        EntryKind::RelativeScaled,
        true,
    );
    let a = analyze(&bin, &AnalysisConfig::default());
    let f = &a.funcs[&bin.function_named("dispatch").unwrap().addr];
    assert_eq!(f.status, FuncStatus::Ok);
    let jt = &f.jump_tables[0];
    assert_eq!(jt.kind, TableKind::RelativeScaled);
    assert_eq!(jt.entry_width, 1);
    assert_eq!(jt.targets.len(), 4);
}

#[test]
fn copied_bound_needs_copy_tracking() {
    for arch in Arch::ALL {
        let bin =
            build_with_switch(arch, false, SwitchHardness::CopiedBound, 8, EntryKind::Absolute, false);
        let a = analyze(&bin, &AnalysisConfig::default());
        let f = &a.funcs[&bin.function_named("dispatch").unwrap().addr];
        assert_eq!(f.status, FuncStatus::Ok, "{arch}");
        assert_eq!(f.jump_tables[0].count, 4, "{arch}: bound via copy chain");
        assert!(!f.jump_tables[0].extended, "{arch}");
    }
}

#[test]
fn spilled_index_bound_needs_spill_tracking() {
    let arch = Arch::X64;
    let bin =
        build_with_switch(arch, false, SwitchHardness::SpilledIndex, 8, EntryKind::Absolute, false);
    // Modern analysis: exact bound.
    let a = analyze(&bin, &AnalysisConfig::default());
    let f = &a.funcs[&bin.function_named("dispatch").unwrap().addr];
    assert_eq!(f.status, FuncStatus::Ok);
    let jt = &f.jump_tables[0];
    assert_eq!((jt.count, jt.extended), (4, false), "spill tracking finds the bound");

    // SRBI analysis: no spill tracking, no extension -> the function
    // is reported failed (coverage loss, the Table 3 story).
    let a2 = analyze(&bin, &AnalysisConfig::srbi());
    let f2 = &a2.funcs[&bin.function_named("dispatch").unwrap().addr];
    assert!(matches!(
        f2.status,
        FuncStatus::Failed(AnalysisFailure::JumpTableUnresolved { .. })
    ));
    assert!(a2.coverage() < 1.0);

    // Our analysis with spill tracking off but extension on: the table
    // is over-approximated up to the next data boundary — safe.
    let cfg3 = AnalysisConfig { track_spills: false, ..AnalysisConfig::default() };
    let a3 = analyze(&bin, &cfg3);
    let f3 = &a3.funcs[&bin.function_named("dispatch").unwrap().addr];
    assert_eq!(f3.status, FuncStatus::Ok);
    let jt3 = &f3.jump_tables[0];
    assert!(jt3.extended);
    assert!(jt3.count >= 4, "extension must not under-approximate");
    assert!(jt3.targets.len() >= 4);
}

#[test]
fn unanalyzable_base_fails_function() {
    let bin =
        build_with_switch(Arch::X64, false, SwitchHardness::Unanalyzable, 8, EntryKind::Absolute, false);
    let a = analyze(&bin, &AnalysisConfig::default());
    let f = &a.funcs[&bin.function_named("dispatch").unwrap().addr];
    assert!(
        matches!(f.status, FuncStatus::Failed(AnalysisFailure::JumpTableUnresolved { .. })),
        "{:?}",
        f.status
    );
    // Other functions are unaffected (the §4.3 isolation property).
    let main = &a.funcs[&bin.function_named("main").unwrap().addr];
    assert_eq!(main.status, FuncStatus::Ok);
}

#[test]
fn indirect_tailcall_rescued_by_gap_heuristic() {
    for arch in Arch::ALL {
        let mut b = BinaryBuilder::new(arch);
        // A frameless function ending in an indirect tail call: the
        // teardown heuristic misses it (no frame), the gap heuristic
        // accepts it (no gaps).
        let mut items = vec![movi(8, 1), out(8)];
        emit_indirect_tailcall(&mut items, arch, "fp_slot", (Reg(9), Reg(10)));
        b.add_function(FuncDef::new("hop", Language::C, items));
        let mut tgt = vec![movi(8, 7), out(8)];
        tgt.extend(epilogue(arch, 0, true));
        b.add_function(FuncDef::new("target", Language::C, tgt));
        b.push_data(
            Some("fp_slot"),
            DataItem::Addr { target: RefTarget::Func("target".into()), delta: 0 },
        );
        let mut main = prologue(arch, 16, false);
        main.push(Item::CallF("hop".into()));
        main.push(Item::I(Inst::Halt));
        b.add_function(FuncDef::new("main", Language::C, main));
        b.set_entry("main");
        let bin = b.build().unwrap();

        let ours = analyze(&bin, &AnalysisConfig::default());
        let f = &ours.funcs[&bin.function_named("hop").unwrap().addr];
        assert_eq!(f.status, FuncStatus::Ok, "{arch}: gap heuristic rescues");
        assert_eq!(f.indirect_tailcalls.len(), 1, "{arch}");

        let srbi = analyze(&bin, &AnalysisConfig::srbi());
        let f2 = &srbi.funcs[&bin.function_named("hop").unwrap().addr];
        assert!(
            matches!(f2.status, FuncStatus::Failed(_)),
            "{arch}: teardown heuristic misses frameless tail calls"
        );
    }
}

#[test]
fn teardown_heuristic_accepts_framed_tailcall() {
    let arch = Arch::X64;
    let mut b = BinaryBuilder::new(arch);
    let mut items = prologue(arch, 32, true);
    items.push(movi(8, 1));
    // Tear the frame down, then tail call.
    items.push(Item::I(Inst::AluImm { op: AluOp::Add, dst: Reg(4), src: Reg(4), imm: 32 }));
    emit_indirect_tailcall(&mut items, arch, "fp_slot", (Reg(9), Reg(10)));
    b.add_function(FuncDef::new("hop", Language::C, items));
    let mut tgt = vec![movi(8, 7), out(8)];
    tgt.extend(epilogue(arch, 0, true));
    b.add_function(FuncDef::new("target", Language::C, tgt));
    b.push_data(
        Some("fp_slot"),
        DataItem::Addr { target: RefTarget::Func("target".into()), delta: 0 },
    );
    let mut main = prologue(arch, 16, false);
    main.push(Item::CallF("hop".into()));
    main.push(Item::I(Inst::Halt));
    b.add_function(FuncDef::new("main", Language::C, main));
    b.set_entry("main");
    let bin = b.build().unwrap();
    let srbi = analyze(&bin, &AnalysisConfig::srbi());
    let f = &srbi.funcs[&bin.function_named("hop").unwrap().addr];
    assert_eq!(f.status, FuncStatus::Ok, "teardown heuristic applies");
    assert_eq!(f.indirect_tailcalls.len(), 1);
}

#[test]
fn function_pointers_found_via_relocations_in_pie() {
    for arch in Arch::ALL {
        let mut b = BinaryBuilder::new(arch);
        b.pie(true);
        let mut main = prologue(arch, 16, false);
        emit_indirect_call(&mut main, arch, "fp_slot", (Reg(9), Reg(10)));
        main.push(Item::I(Inst::Halt));
        b.add_function(FuncDef::new("main", Language::C, main));
        let mut tgt = vec![movi(8, 7), out(8)];
        tgt.extend(epilogue(arch, 0, true));
        b.add_function(FuncDef::new("target", Language::C, tgt));
        b.push_data(
            Some("fp_slot"),
            DataItem::Addr { target: RefTarget::Func("target".into()), delta: 0 },
        );
        b.set_entry("main");
        let bin = b.build().unwrap();
        let a = analyze(&bin, &AnalysisConfig::default());
        let target = bin.function_named("target").unwrap().addr;
        let slot_defs: Vec<_> = a
            .fp_defs
            .iter()
            .filter(|d| matches!(d.site, FpDefSite::DataSlot { .. }) && d.target_fn == target)
            .collect();
        assert_eq!(slot_defs.len(), 1, "{arch}");
        assert_eq!(slot_defs[0].delta, 0, "{arch}");
        let main_cfg = &a.funcs[&bin.entry];
        assert!(main_cfg.has_indirect_calls, "{arch}");
    }
}

#[test]
fn goexit_plus_one_delta_is_tracked() {
    // Listing 1: load a relocated pointer, increment, store.
    let arch = Arch::X64;
    let mut b = BinaryBuilder::new(arch);
    b.pie(true);
    let mut main = prologue(arch, 32, false);
    main.push(Item::LoadFrom {
        dst: Reg(9),
        target: RefTarget::Data("fp_slot".into()),
        offset: 0,
        width: icfgp_isa::Width::W8,
        sign: false,
        tmp: Reg(10),
    });
    main.push(Item::I(Inst::AluImm { op: AluOp::Add, dst: Reg(9), src: Reg(9), imm: 1 }));
    main.push(Item::StoreTo {
        src: Reg(9),
        target: RefTarget::Data("vtab".into()),
        offset: 0,
        width: icfgp_isa::Width::W8,
        tmp: Reg(10),
    });
    main.push(Item::I(Inst::Halt));
    b.add_function(FuncDef::new("main", Language::Go, main));
    b.add_function(FuncDef::new(
        "goexit",
        Language::Go,
        vec![Item::I(Inst::Nop), Item::I(Inst::Halt)],
    ));
    b.push_data(
        Some("fp_slot"),
        DataItem::Addr { target: RefTarget::Func("goexit".into()), delta: 0 },
    );
    b.push_data(Some("vtab"), DataItem::Zeros(8));
    b.set_entry("main");
    let bin = b.build().unwrap();

    let a = analyze(&bin, &AnalysisConfig::default());
    let goexit = bin.function_named("goexit").unwrap().addr;
    let def = a
        .fp_defs
        .iter()
        .find(|d| matches!(d.site, FpDefSite::DataSlot { .. }) && d.target_fn == goexit)
        .expect("slot def found");
    assert_eq!(def.delta, 1, "forward slicing recovers the +1");

    // Without arithmetic tracking the delta is invisible.
    let naive = AnalysisConfig { funcptr_arith_tracking: false, ..AnalysisConfig::default() };
    let a2 = analyze(&bin, &naive);
    let def2 = a2
        .fp_defs
        .iter()
        .find(|d| matches!(d.site, FpDefSite::DataSlot { .. }) && d.target_fn == goexit)
        .unwrap();
    assert_eq!(def2.delta, 0);
}

#[test]
fn injected_faults_shape_the_cfg() {
    let arch = Arch::X64;
    let bin = build_with_switch(arch, false, SwitchHardness::Easy, 8, EntryKind::Absolute, false);
    let dispatch = bin.function_named("dispatch").unwrap().addr;
    let base = analyze(&bin, &AnalysisConfig::default());
    let jump_addr = base.funcs[&dispatch].jump_tables[0].jump_addr;

    // Reporting failure: function skipped, others fine.
    let c1 = AnalysisConfig {
        inject: vec![InjectedFault::FailFunction { entry: dispatch }],
        ..AnalysisConfig::default()
    };
    let a1 = analyze(&bin, &c1);
    assert!(matches!(a1.funcs[&dispatch].status, FuncStatus::Failed(AnalysisFailure::Injected)));
    assert!(a1.coverage() < 1.0);

    // Under-approximation: edges go missing.
    let c2 = AnalysisConfig {
        inject: vec![InjectedFault::UnderApproximateTable { jump_addr, drop: 2 }],
        ..AnalysisConfig::default()
    };
    let a2 = analyze(&bin, &c2);
    assert_eq!(a2.funcs[&dispatch].jump_tables[0].targets.len(), 2);

    // Over-approximation: extra infeasible edges appear.
    let c3 = AnalysisConfig {
        inject: vec![InjectedFault::OverApproximateTable { jump_addr, extra: 3 }],
        ..AnalysisConfig::default()
    };
    let a3 = analyze(&bin, &c3);
    assert_eq!(a3.funcs[&dispatch].jump_tables[0].targets.len(), 7);
}

#[test]
fn liveness_finds_scratch_registers() {
    let arch = Arch::Aarch64;
    let mut b = BinaryBuilder::new(arch);
    let mut items = vec![
        movi(8, 1),
        Item::Label("top".into()),
        Item::I(Inst::AluImm { op: AluOp::Add, dst: Reg(8), src: Reg(8), imm: 1 }),
        Item::I(Inst::CmpImm { a: Reg(8), imm: 10 }),
        Item::JccL(Cond::Lt, "top".into()),
        out(8),
    ];
    items.extend(epilogue(arch, 0, true));
    b.add_function(FuncDef::new("f", Language::C, items));
    b.set_entry("f");
    let bin = b.build().unwrap();
    let a = analyze(&bin, &AnalysisConfig::default());
    let f = &a.funcs[&bin.entry];
    let live = icfgp_cfg::live_in_at_blocks(f, arch);
    // r8 is live at the loop head; some other register is free.
    let loop_head = f
        .blocks
        .keys()
        .copied()
        .find(|s| {
            f.blocks[s]
                .succs
                .iter()
                .any(|e| e.kind == EdgeKind::CondTaken || e.kind == EdgeKind::Branch)
        })
        .expect("loop block");
    assert!(live.is_live_in(f.entry, Reg(8)) || !live.is_live_in(loop_head, Reg(20)));
    let scratch = live.scratch_reg_at(f.entry).expect("a dead register exists");
    assert_ne!(scratch, arch.sp());
    assert_ne!(scratch, Reg(8));
}

#[test]
fn call_sites_and_tail_calls_recorded() {
    let arch = Arch::X64;
    let mut b = BinaryBuilder::new(arch);
    let mut main = prologue(arch, 16, false);
    main.push(Item::CallF("callee".into()));
    main.push(Item::TailJmpF("callee".into()));
    b.add_function(FuncDef::new("main", Language::C, main));
    b.add_function(FuncDef::new("callee", Language::C, vec![Item::I(Inst::Halt)]));
    b.set_entry("main");
    let bin = b.build().unwrap();
    let a = analyze(&bin, &AnalysisConfig::default());
    let f = &a.funcs[&bin.entry];
    let callee = bin.function_named("callee").unwrap().addr;
    assert_eq!(f.call_sites.len(), 1);
    assert_eq!(f.call_sites[0].2, Some(callee));
    assert_eq!(f.tail_calls.len(), 1);
    assert_eq!(f.tail_calls[0].1, callee);
}

#[test]
fn landing_pads_are_block_leaders() {
    let arch = Arch::X64;
    let mut b = BinaryBuilder::new(arch);
    let mut c = prologue(arch, 32, false);
    c.push(Item::Label("try_s".into()));
    c.push(Item::CallF("thrower".into()));
    c.push(Item::Label("try_e".into()));
    c.extend(epilogue(arch, 32, false));
    c.push(Item::Label("landing".into()));
    c.push(out(8));
    c.extend(epilogue(arch, 32, false));
    b.add_function(
        FuncDef::new("catcher", Language::Cpp, c).with_unwind(icfgp_asm::UnwindSpec {
            frame_size: 32,
            ra: None,
            call_sites: vec![("try_s".into(), "try_e".into(), "landing".into())],
        }),
    );
    b.add_function(FuncDef::new("thrower", Language::Cpp, vec![Item::I(Inst::Ret)]));
    b.set_entry("catcher");
    let bin = b.build().unwrap();
    let a = analyze(&bin, &AnalysisConfig::default());
    let f = &a.funcs[&bin.entry];
    assert_eq!(f.landing_pads.len(), 1);
    let lp = f.landing_pads[0];
    assert!(f.block_starting_at(lp).is_some(), "landing pad starts a block");
}

#[test]
fn code_fp_defs_in_matches_a_filter_over_all_defs() {
    // The per-function binary search over the sorted `fp_defs` returns
    // exactly what a scan of every definition did, in the same order;
    // fp-landing splits land in the one function holding the target.
    for arch in [Arch::X64, Arch::Ppc64le, Arch::Aarch64] {
        for bin in [
            icfgp_workloads::docker_like(arch, 1, 4).binary,
            icfgp_workloads::firefox_like(arch, 1).binary,
        ] {
            let a = analyze(&bin, &AnalysisConfig::default());
            assert!(a.fp_defs_sorted(), "{arch}");
            let goexit = bin.function_named("goexit").map(|s| s.addr);
            if let Some(goexit) = goexit {
                assert!(!a.funcs[&goexit].fp_landing_targets.is_empty(), "{arch}: &goexit + skip");
            }
            for f in a.funcs.values() {
                let scanned: Vec<_> = a
                    .fp_defs
                    .iter()
                    .filter(|d| matches!(d.site, FpDefSite::CodeImm { inst_addr, .. }
                        if inst_addr >= f.start && inst_addr < f.end))
                    .copied()
                    .collect();
                assert_eq!(a.code_fp_defs_in(f.start, f.end), &scanned[..], "{arch} {:#x}", f.entry);
            }
            // The range is half-open at both ends of every site.
            for d in &a.fp_defs {
                let FpDefSite::CodeImm { inst_addr: x, .. } = d.site else { continue };
                assert!(a.code_fp_defs_in(x, x).is_empty(), "{arch} {x:#x}");
                assert!(a.code_fp_defs_in(x, x + 1).contains(d), "{arch} {x:#x}");
                assert!(!a.code_fp_defs_in(0, x).contains(d), "{arch} {x:#x}");
            }
            for d in a.fp_defs.iter().filter(|d| d.delta != 0) {
                let target = d.target_fn.wrapping_add_signed(d.delta);
                let owner = a.funcs.values().find(|f| target >= f.start && target < f.end);
                for f in a.funcs.values().filter(|f| f.fp_landing_targets.contains(&target)) {
                    assert_eq!(Some(f.entry), owner.map(|o| o.entry), "{arch} {target:#x}");
                }
            }
        }
    }
}
