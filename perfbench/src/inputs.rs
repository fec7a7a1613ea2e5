//! The benchmark's input generator and workload table.

use icfgp_asm::patterns::SwitchHardness;
use icfgp_asm::SectionSizes;
use icfgp_isa::Arch;
use icfgp_obj::{Binary, Language};
use icfgp_workloads::{generate, GenParams, SwitchFlavor};

/// The seed `firefox_like` uses; with it the generator below
/// reproduces `firefox_like(Arch::X64, scale)` byte for byte.
pub const DEFAULT_SEED: u64 = 0xF1EF0;

/// The three workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One large binary, rewritten with no store.
    ColdLarge,
    /// The same binary, every lookup served by a pre-filled disk store.
    WarmDisk,
    /// Four near-identical variants rewritten into an empty store.
    FleetStore,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::ColdLarge,
        Workload::WarmDisk,
        Workload::FleetStore,
    ];

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdLarge => "cold_large",
            Workload::WarmDisk => "warm_disk",
            Workload::FleetStore => "fleet_store",
        }
    }

    /// Generator scale of each input at full size.
    pub fn scale(self) -> usize {
        match self {
            Workload::ColdLarge | Workload::WarmDisk => 16,
            Workload::FleetStore => 4,
        }
    }

    /// Number of input binaries (fleet variants use `perturb = 0..n`).
    pub fn variants(self) -> u64 {
        match self {
            Workload::ColdLarge | Workload::WarmDisk => 1,
            Workload::FleetStore => 4,
        }
    }

    /// Whether invocations run over a persistent store.
    pub fn uses_store(self) -> bool {
        self != Workload::ColdLarge
    }
}

/// A binary in the shape of `firefox_like(Arch::X64, scale)`, drawn
/// from `seed`, as fleet variant `perturb`.
pub fn firefox_shaped(seed: u64, scale: usize, perturb: u64) -> Binary {
    let scale = scale.max(1);
    let p = GenParams {
        name: "firefox-libxul".to_string(),
        seed,
        arch: Arch::X64,
        pie: true,
        languages: vec![Language::Cpp, Language::Rust, Language::C],
        compute_funcs: 32 * scale,
        kernel_iters: 30,
        kernel_body: 0,
        switch_funcs: 10 * scale,
        switch_cases: 10,
        switch_inner_iters: 6,
        switch_hardness: vec![
            SwitchHardness::Easy,
            SwitchHardness::CopiedBound,
            SwitchHardness::SpilledIndex,
            SwitchHardness::Easy,
            SwitchHardness::Easy,
            SwitchHardness::Easy,
            SwitchHardness::Easy,
            SwitchHardness::Easy,
            SwitchHardness::Easy,
            SwitchHardness::Unanalyzable,
        ],
        // `firefox_like` resolves the x64 arch default to Relative4.
        switch_flavor: SwitchFlavor::Relative4,
        fnptr_tables: 6 * scale,
        fnptr_targets: 6,
        fnptr_escapes: scale,
        exceptions: true,
        exception_rate: true,
        stack_indirect_call: false,
        tiny_funcs: 8 * scale,
        tailcall_funcs: 4 * scale,
        outer_iters: 40,
        link_time_relocs: false,
        symbol_versioning: true,
        stripped: false,
        extra_sections: SectionSizes {
            extra_dynsym: 16 * 1024,
            extra_dynstr: 8 * 1024,
            extra_rela: 8 * 1024,
        },
        filler_funcs: 120 * scale,
        filler_insts: 96,
        perturb,
    };
    generate(&p).binary
}

/// The serialized input files of `workload` for `seed` at `scale`,
/// encoded exactly as `icfgp gen` writes them.
pub fn input_files(workload: Workload, seed: u64, scale: usize) -> Vec<Vec<u8>> {
    (0..workload.variants())
        .map(|perturb| {
            serde_json::to_vec(&firefox_shaped(seed, scale, perturb))
                .expect("a generated binary serializes")
        })
        .collect()
}
