//! Whole-binary layout and resolution.

use crate::item::{standard_ra_rule, DataItem, EntryKind, FuncDef, Item, RefTarget};
use crate::AsmError;
use icfgp_isa::{encode, Arch, Inst, Reg};
use icfgp_obj::{
    names, Binary, BinaryKind, CallSiteEntry, GoFuncEntry, GoFuncTable, Relocation, Section,
    SectionFlags, SectionKind, Symbol, UnwindEntry,
};
use std::collections::{BTreeSet, HashMap};

/// Extra padding added to the synthetic dynamic-linking sections, to
/// model binaries with bigger symbol tables (more scratch space after
/// rewriting renames them).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SectionSizes {
    /// Extra `.dynsym` bytes.
    pub extra_dynsym: usize,
    /// Extra `.dynstr` bytes.
    pub extra_dynstr: usize,
    /// Extra `.rela_dyn` bytes.
    pub extra_rela: usize,
}

/// Builds a complete [`Binary`] from functions and data items.
#[derive(Debug)]
pub struct BinaryBuilder {
    arch: Arch,
    kind: BinaryKind,
    pie: bool,
    funcs: Vec<FuncDef>,
    rodata: Vec<(Option<String>, DataItem)>,
    data: Vec<(Option<String>, DataItem)>,
    fini: Vec<String>,
    go_funcs: Option<Vec<(String, u64)>>,
    entry: Option<String>,
    link_time_relocs: bool,
    symbol_versioning: bool,
    stripped: bool,
    sizes: SectionSizes,
    func_align: u64,
}

/// Per-item layout state produced by the relaxation loop.
struct Layout {
    /// Function start addresses, by index.
    func_addrs: Vec<u64>,
    /// Function code sizes (without inter-function padding).
    func_sizes: Vec<u64>,
    /// Per-function label addresses.
    labels: Vec<HashMap<String, u64>>,
    /// Per-function per-item assumed sizes.
    item_sizes: Vec<Vec<u64>>,
    /// One past the last text byte.
    text_end: u64,
}

impl BinaryBuilder {
    /// A fresh builder targeting `arch` (non-PIE executable by
    /// default).
    #[must_use]
    pub fn new(arch: Arch) -> BinaryBuilder {
        BinaryBuilder {
            arch,
            kind: BinaryKind::Exec,
            pie: false,
            funcs: Vec::new(),
            rodata: Vec::new(),
            data: Vec::new(),
            fini: Vec::new(),
            go_funcs: None,
            entry: None,
            link_time_relocs: false,
            symbol_versioning: false,
            stripped: false,
            sizes: SectionSizes::default(),
            func_align: 16,
        }
    }

    /// Target architecture.
    #[must_use]
    pub fn arch(&self) -> Arch {
        self.arch
    }

    /// Build position-independent (adds RELATIVE relocations for every
    /// absolute address slot).
    pub fn pie(&mut self, pie: bool) -> &mut BinaryBuilder {
        self.pie = pie;
        self
    }

    /// Mark the output a shared library (implies PIE).
    pub fn shared_lib(&mut self) -> &mut BinaryBuilder {
        self.kind = BinaryKind::SharedLib;
        self.pie = true;
        self
    }

    /// Retain link-time relocations (`-Wl,-q` analog).
    pub fn link_time_relocs(&mut self, keep: bool) -> &mut BinaryBuilder {
        self.link_time_relocs = keep;
        self
    }

    /// Mark symbol-versioning metadata present.
    pub fn symbol_versioning(&mut self, present: bool) -> &mut BinaryBuilder {
        self.symbol_versioning = present;
        self
    }

    /// Strip symbol names (addresses and sizes survive).
    pub fn stripped(&mut self, stripped: bool) -> &mut BinaryBuilder {
        self.stripped = stripped;
        self
    }

    /// Inflate the synthetic dynamic-linking sections.
    pub fn section_sizes(&mut self, sizes: SectionSizes) -> &mut BinaryBuilder {
        self.sizes = sizes;
        self
    }

    /// Function alignment (default 16, the compiler norm). Dense
    /// binaries (`-falign-functions=1`) use 1 — no padding bytes
    /// between functions, hence no padding scratch space.
    ///
    /// # Panics
    ///
    /// Panics when `align` is not a power of two or is below the
    /// architecture's instruction alignment.
    pub fn func_align(&mut self, align: u64) -> &mut BinaryBuilder {
        assert!(align.is_power_of_two() && align >= self.arch.inst_align());
        self.func_align = align;
        self
    }

    /// Add a function; definition order is layout order.
    pub fn add_function(&mut self, func: FuncDef) -> &mut BinaryBuilder {
        self.funcs.push(func);
        self
    }

    /// Add a read-only data item, optionally named.
    pub fn push_rodata(
        &mut self,
        symbol: Option<&str>,
        item: DataItem,
    ) -> &mut BinaryBuilder {
        self.rodata.push((symbol.map(str::to_string), item));
        self
    }

    /// Add a writable data item, optionally named.
    pub fn push_data(&mut self, symbol: Option<&str>, item: DataItem) -> &mut BinaryBuilder {
        self.data.push((symbol.map(str::to_string), item));
        self
    }

    /// Register a finalizer (destructor) function.
    pub fn add_fini(&mut self, func: &str) -> &mut BinaryBuilder {
        self.fini.push(func.to_string());
        self
    }

    /// Emit a Go-style `.pclntab` covering the named functions with the
    /// given traceback frame sizes.
    pub fn set_go_functable(&mut self, funcs: Vec<(String, u64)>) -> &mut BinaryBuilder {
        self.go_funcs = Some(funcs);
        self
    }

    /// Set the entry function.
    pub fn set_entry(&mut self, name: &str) -> &mut BinaryBuilder {
        self.entry = Some(name.to_string());
        self
    }

    /// Link-time base address of `.text`.
    #[must_use]
    pub fn text_base(&self) -> u64 {
        if self.pie {
            0x10000
        } else {
            0x40_0000
        }
    }

    // ----- sizing ---------------------------------------------------

    /// Size of an item under the current promotion state; `addr` is the
    /// item's start (alignment-sensitive items need it).
    fn item_size(
        &self,
        func: &FuncDef,
        item: &Item,
        promoted: bool,
        addr: u64,
    ) -> Result<u64, AsmError> {
        let x64 = self.arch == Arch::X64;
        Ok(match item {
            Item::Label(_) => 0,
            Item::I(inst) => encode(inst, self.arch)
                .map_err(|err| AsmError::Encode { func: func.name.clone(), err })?
                .len() as u64,
            Item::JmpL(_) => {
                if x64 {
                    if promoted {
                        5
                    } else {
                        2
                    }
                } else {
                    4
                }
            }
            Item::JccL(..) => {
                if x64 {
                    if promoted {
                        6
                    } else {
                        3
                    }
                } else {
                    4
                }
            }
            Item::CallF(_) | Item::TailJmpF(_) => {
                if x64 {
                    5
                } else {
                    4
                }
            }
            Item::LoadAddr { .. } => {
                if x64 {
                    if self.pie {
                        7 // lea reg, [pc+disp32]
                    } else {
                        6 // mov reg, imm32 (absolute)
                    }
                } else {
                    8 // addis+addi / adrp+add
                }
            }
            Item::MovWide { imm, .. } => {
                if x64 {
                    if i32::try_from(*imm).is_ok() {
                        6
                    } else {
                        10
                    }
                } else if i16::try_from(*imm).is_ok() {
                    4
                } else if i32::try_from(*imm).is_ok() {
                    8
                } else {
                    16
                }
            }
            Item::LoadFrom { .. } | Item::StoreTo { .. } => {
                if x64 {
                    7 // pc-relative access
                } else {
                    12 // addr materialisation + access
                }
            }
            Item::InlineTable { entry_width, targets, .. } => {
                let pad = pad_to(addr, u64::from(*entry_width));
                let mut size = pad + u64::from(*entry_width) * targets.len() as u64;
                if self.arch.is_fixed_width() {
                    size += pad_to(addr + size, 4);
                }
                size
            }
            Item::Align(a) => pad_to(addr, u64::from(*a)),
        })
    }

    /// Run the relaxation loop: returns the final text layout.
    fn relax(&self) -> Result<Layout, AsmError> {
        let mut promoted: Vec<Vec<bool>> =
            self.funcs.iter().map(|f| vec![false; f.items.len()]).collect();
        let mut labels: Vec<HashMap<String, u64>> = vec![HashMap::new(); self.funcs.len()];
        for _pass in 0..64 {
            // Lay out with the current promotion state.
            let mut func_addrs = Vec::with_capacity(self.funcs.len());
            let mut func_sizes = Vec::with_capacity(self.funcs.len());
            let mut item_sizes = Vec::with_capacity(self.funcs.len());
            let mut new_labels: Vec<HashMap<String, u64>> = vec![HashMap::new(); self.funcs.len()];
            let mut cursor = self.text_base();
            for (fi, f) in self.funcs.iter().enumerate() {
                cursor += pad_to(cursor, self.func_align);
                func_addrs.push(cursor);
                let mut sizes = Vec::with_capacity(f.items.len());
                let start = cursor;
                for (ii, item) in f.items.iter().enumerate() {
                    if let Item::Label(name) = item {
                        new_labels[fi].insert(name.clone(), cursor);
                    }
                    let size = self.item_size(f, item, promoted[fi][ii], cursor)?;
                    sizes.push(size);
                    cursor += size;
                }
                func_sizes.push(cursor - start);
                item_sizes.push(sizes);
            }
            // Promote x64 label branches whose offsets no longer fit i8.
            let mut changed = new_labels != labels;
            labels = new_labels;
            if self.arch == Arch::X64 {
                for (fi, f) in self.funcs.iter().enumerate() {
                    let mut addr = func_addrs[fi];
                    for (ii, item) in f.items.iter().enumerate() {
                        match item {
                            Item::JmpL(l) | Item::JccL(_, l) if !promoted[fi][ii] => {
                                let target =
                                    *labels[fi].get(l).ok_or_else(|| AsmError::UndefinedLabel {
                                        func: f.name.clone(),
                                        label: l.clone(),
                                    })?;
                                let off = target as i64 - addr as i64;
                                if i8::try_from(off).is_err() {
                                    promoted[fi][ii] = true;
                                    changed = true;
                                }
                            }
                            _ => {}
                        }
                        addr += item_sizes[fi][ii];
                    }
                }
            }
            if !changed {
                return Ok(Layout {
                    text_end: cursor,
                    func_addrs,
                    func_sizes,
                    labels,
                    item_sizes,
                });
            }
        }
        Err(AsmError::RelaxationDiverged)
    }

    // ----- resolution ------------------------------------------------

    /// Resolve a reference to an address.
    fn resolve(
        &self,
        target: &RefTarget,
        func_map: &HashMap<String, u64>,
        data_map: &HashMap<String, u64>,
        labels: &[HashMap<String, u64>],
        func_index: &HashMap<String, usize>,
    ) -> Result<u64, AsmError> {
        match target {
            RefTarget::Func(name) => func_map
                .get(name)
                .copied()
                .ok_or_else(|| AsmError::UndefinedFunction { name: name.clone() }),
            RefTarget::Data(name) => data_map
                .get(name)
                .copied()
                .ok_or_else(|| AsmError::UndefinedData { name: name.clone() }),
            RefTarget::Label { func, label } => {
                let fi = func_index
                    .get(func)
                    .copied()
                    .ok_or_else(|| AsmError::UndefinedFunction { name: func.clone() })?;
                labels[fi].get(label).copied().ok_or_else(|| AsmError::UndefinedLabel {
                    func: func.clone(),
                    label: label.clone(),
                })
            }
        }
    }

    /// Emit the instruction sequence materialising `target_addr` into
    /// `dst` at `item_addr`.
    fn load_addr_insts(
        &self,
        dst: Reg,
        target_addr: u64,
        item_addr: u64,
        toc_base: u64,
    ) -> Vec<Inst> {
        match self.arch {
            Arch::X64 => {
                if self.pie {
                    vec![Inst::Lea {
                        dst,
                        addr: icfgp_isa::Addr::pc_rel(target_addr as i64 - item_addr as i64),
                    }]
                } else {
                    vec![Inst::MovImm { dst, imm: target_addr as i64 }]
                }
            }
            Arch::Ppc64le => {
                let delta = target_addr as i64 - toc_base as i64;
                let hi = ((delta + 0x8000) >> 16) as i16;
                let lo = (delta - (i64::from(hi) << 16)) as i16;
                vec![
                    Inst::AddShl16 { dst, src: Reg(2), imm: hi },
                    Inst::AddImm16 { dst, src: dst, imm: lo },
                ]
            }
            Arch::Aarch64 => {
                // Bias the page selection so the low part fits the
                // signed imm12 of our `AluImm` add.
                let page_delta =
                    ((target_addr as i64 + 0x800) >> 12) - (item_addr as i64 >> 12);
                let low = target_addr as i64 - (((item_addr as i64 >> 12) + page_delta) << 12);
                debug_assert!((-2048..=2047).contains(&low));
                vec![
                    Inst::AdrPage { dst, page_delta },
                    Inst::AluImm { op: icfgp_isa::AluOp::Add, dst, src: dst, imm: low as i32 },
                ]
            }
        }
    }

    /// Expand a wide constant materialisation.
    fn mov_wide_insts(&self, dst: Reg, imm: i64) -> Vec<Inst> {
        if self.arch == Arch::X64 || i16::try_from(imm).is_ok() {
            return vec![Inst::MovImm { dst, imm }];
        }
        if i32::try_from(imm).is_ok() {
            return vec![
                Inst::MovImm { dst, imm: imm >> 16 },
                Inst::OrShl16 { dst, imm: imm as u16 },
            ];
        }
        vec![
            Inst::MovImm { dst, imm: imm >> 48 },
            Inst::OrShl16 { dst, imm: (imm >> 32) as u16 },
            Inst::OrShl16 { dst, imm: (imm >> 16) as u16 },
            Inst::OrShl16 { dst, imm: imm as u16 },
        ]
    }

    /// Build the binary.
    ///
    /// # Errors
    ///
    /// Any [`AsmError`]: undefined references, encoding failures,
    /// jump-table overflow, or a missing entry function.
    pub fn build(&self) -> Result<Binary, AsmError> {
        let layout = self.relax()?;
        let func_index: HashMap<String, usize> =
            self.funcs.iter().enumerate().map(|(i, f)| (f.name.clone(), i)).collect();
        if func_index.len() != self.funcs.len() {
            // Find the duplicate for the error message.
            let mut seen = BTreeSet::new();
            for f in &self.funcs {
                if !seen.insert(&f.name) {
                    return Err(AsmError::DuplicateSymbol { name: f.name.clone() });
                }
            }
        }
        let func_map: HashMap<String, u64> = self
            .funcs
            .iter()
            .zip(&layout.func_addrs)
            .map(|(f, a)| (f.name.clone(), *a))
            .collect();

        // ----- data layout (addresses only) --------------------------
        let page = 0x1000u64;
        let rodata_addr = align_up(layout.text_end, page);
        let mut data_map: HashMap<String, u64> = HashMap::new();
        let rodata_size =
            layout_data(&self.rodata, rodata_addr, &mut data_map)?;
        let data_addr = align_up(rodata_addr + rodata_size, page);
        let data_size = layout_data(&self.data, data_addr, &mut data_map)?;
        let fini_addr = align_up(data_addr + data_size, 16);
        let fini_size = 8 * self.fini.len() as u64;
        let pclntab_addr = align_up(fini_addr + fini_size, 16);
        let toc_base = rodata_addr + 0x8000;
        if self.go_funcs.is_some() {
            // Make the Go function table addressable by generated
            // runtime code (findfunc/pcvalue walk it with loads).
            data_map.insert("__pclntab".to_string(), pclntab_addr);
        }

        // Inline (in-code) jump tables are addressable data symbols;
        // register them before any reference resolution.
        for (fi, f) in self.funcs.iter().enumerate() {
            let mut addr = layout.func_addrs[fi];
            for (ii, item) in f.items.iter().enumerate() {
                if let Item::InlineTable { name, entry_width, .. } = item {
                    let table_base = addr + pad_to(addr, u64::from(*entry_width));
                    if data_map.insert(name.clone(), table_base).is_some() {
                        return Err(AsmError::DuplicateSymbol { name: name.clone() });
                    }
                }
                addr += layout.item_sizes[fi][ii];
            }
        }

        // ----- emit text ---------------------------------------------
        let mut relocations: Vec<Relocation> = Vec::new();
        let mut text = Vec::with_capacity((layout.text_end - self.text_base()) as usize);
        let nop = encode(&Inst::Nop, self.arch).expect("nop encodes");
        let resolve = |t: &RefTarget| {
            self.resolve(t, &func_map, &data_map, &layout.labels, &func_index)
        };
        for (fi, f) in self.funcs.iter().enumerate() {
            // Inter-function alignment padding.
            while self.text_base() + text.len() as u64 != layout.func_addrs[fi] {
                text.extend_from_slice(&nop);
            }
            let mut addr = layout.func_addrs[fi];
            for (ii, item) in f.items.iter().enumerate() {
                let assumed = layout.item_sizes[fi][ii];
                let mut bytes: Vec<u8> = Vec::new();
                let enc = |inst: &Inst, out: &mut Vec<u8>| -> Result<(), AsmError> {
                    out.extend_from_slice(&encode(inst, self.arch).map_err(|err| {
                        AsmError::Encode { func: f.name.clone(), err }
                    })?);
                    Ok(())
                };
                match item {
                    Item::Label(_) => {}
                    Item::I(inst) => enc(inst, &mut bytes)?,
                    Item::JmpL(l) | Item::JccL(_, l) => {
                        let target = *layout.labels[fi].get(l).ok_or_else(|| {
                            AsmError::UndefinedLabel { func: f.name.clone(), label: l.clone() }
                        })?;
                        let offset = target as i64 - addr as i64;
                        let inst = match item {
                            Item::JmpL(_) => Inst::Jump { offset },
                            Item::JccL(c, _) => Inst::JumpCond { cond: *c, offset },
                            _ => unreachable!(),
                        };
                        enc(&inst, &mut bytes)?;
                        // A promoted branch may shrink back below the
                        // i8 boundary as other code moved; re-encode in
                        // the wide form's budget by nop-padding below.
                    }
                    Item::CallF(name) | Item::TailJmpF(name) => {
                        let target = resolve(&RefTarget::Func(name.clone()))?;
                        let offset = target as i64 - addr as i64;
                        let inst = if matches!(item, Item::CallF(_)) {
                            Inst::Call { offset }
                        } else {
                            Inst::Jump { offset }
                        };
                        enc(&inst, &mut bytes)?;
                    }
                    Item::LoadAddr { dst, target, delta } => {
                        let t = resolve(target)?.wrapping_add_signed(*delta);
                        for inst in self.load_addr_insts(*dst, t, addr, toc_base) {
                            enc(&inst, &mut bytes)?;
                        }
                    }
                    Item::MovWide { dst, imm } => {
                        for inst in self.mov_wide_insts(*dst, *imm) {
                            enc(&inst, &mut bytes)?;
                        }
                    }
                    Item::LoadFrom { dst, target, offset, width, sign, tmp } => {
                        let t = resolve(target)?.wrapping_add_signed(*offset);
                        if self.arch == Arch::X64 {
                            enc(
                                &Inst::Load {
                                    dst: *dst,
                                    addr: icfgp_isa::Addr::pc_rel(t as i64 - addr as i64),
                                    width: *width,
                                    sign: *sign,
                                },
                                &mut bytes,
                            )?;
                        } else {
                            for inst in self.load_addr_insts(*tmp, t, addr, toc_base) {
                                enc(&inst, &mut bytes)?;
                            }
                            enc(
                                &Inst::Load {
                                    dst: *dst,
                                    addr: icfgp_isa::Addr::base_only(*tmp),
                                    width: *width,
                                    sign: *sign,
                                },
                                &mut bytes,
                            )?;
                        }
                    }
                    Item::StoreTo { src, target, offset, width, tmp } => {
                        let t = resolve(target)?.wrapping_add_signed(*offset);
                        if self.arch == Arch::X64 {
                            enc(
                                &Inst::Store {
                                    src: *src,
                                    addr: icfgp_isa::Addr::pc_rel(t as i64 - addr as i64),
                                    width: *width,
                                },
                                &mut bytes,
                            )?;
                        } else {
                            for inst in self.load_addr_insts(*tmp, t, addr, toc_base) {
                                enc(&inst, &mut bytes)?;
                            }
                            enc(
                                &Inst::Store {
                                    src: *src,
                                    addr: icfgp_isa::Addr::base_only(*tmp),
                                    width: *width,
                                },
                                &mut bytes,
                            )?;
                        }
                    }
                    Item::InlineTable { name, entry_width, kind, targets } => {
                        let pad = pad_to(addr, u64::from(*entry_width));
                        bytes.resize(pad as usize, nop[0]);
                        let table_base = addr + pad;
                        for label in targets {
                            let t = *layout.labels[fi].get(label).ok_or_else(|| {
                                AsmError::UndefinedLabel {
                                    func: f.name.clone(),
                                    label: label.clone(),
                                }
                            })?;
                            let slot = table_base + (bytes.len() as u64 - pad);
                            write_table_entry(
                                &mut bytes,
                                name,
                                *kind,
                                *entry_width,
                                t,
                                table_base,
                            )?;
                            add_table_reloc(
                                &mut relocations,
                                self.pie,
                                *kind,
                                *entry_width,
                                slot,
                                t,
                                name,
                            )?;
                        }
                        if self.arch.is_fixed_width() {
                            while !(addr + bytes.len() as u64).is_multiple_of(4) {
                                bytes.push(0);
                            }
                        }
                    }
                    Item::Align(_) => {}
                }
                // Pad up to the assumed size so label addresses hold.
                debug_assert!(
                    bytes.len() as u64 <= assumed,
                    "item {item:?} emitted {} bytes > assumed {assumed}",
                    bytes.len()
                );
                while (bytes.len() as u64) < assumed {
                    bytes.extend_from_slice(&nop);
                }
                bytes.truncate(assumed as usize);
                text.extend_from_slice(&bytes);
                addr += assumed;
            }
        }

        // ----- emit data ----------------------------------------------
        let emit_data = |items: &[(Option<String>, DataItem)],
                         base: u64,
                         relocations: &mut Vec<Relocation>|
         -> Result<Vec<u8>, AsmError> {
            let mut out: Vec<u8> = Vec::new();
            for (_, item) in items {
                let addr = base + out.len() as u64;
                match item {
                    DataItem::Bytes(b) => out.extend_from_slice(b),
                    DataItem::Zeros(n) => out.resize(out.len() + n, 0),
                    DataItem::Addr { target, delta } => {
                        let t = resolve(target)?.wrapping_add_signed(*delta);
                        if self.pie {
                            relocations.push(Relocation::relative(addr, t));
                        }
                        out.extend_from_slice(&t.to_le_bytes());
                    }
                    DataItem::JumpTable { entry_width, kind, targets } => {
                        let pad = pad_to(addr, u64::from(*entry_width));
                        out.resize(out.len() + pad as usize, 0);
                        let table_base = addr + pad;
                        for (func, label) in targets {
                            let t = resolve(&RefTarget::label(func.clone(), label.clone()))?;
                            let slot = base + out.len() as u64;
                            write_table_entry(
                                &mut out,
                                "<data table>",
                                *kind,
                                *entry_width,
                                t,
                                table_base,
                            )?;
                            add_table_reloc(
                                relocations,
                                self.pie,
                                *kind,
                                *entry_width,
                                slot,
                                t,
                                "<data table>",
                            )?;
                        }
                    }
                    DataItem::Align(a) => {
                        let pad = pad_to(addr, u64::from(*a));
                        out.resize(out.len() + pad as usize, 0);
                    }
                }
            }
            Ok(out)
        };
        let rodata_bytes = emit_data(&self.rodata, rodata_addr, &mut relocations)?;
        let data_bytes = emit_data(&self.data, data_addr, &mut relocations)?;

        // ----- fini array ---------------------------------------------
        let mut fini_bytes = Vec::with_capacity(self.fini.len() * 8);
        for (i, name) in self.fini.iter().enumerate() {
            let t = resolve(&RefTarget::Func(name.clone()))?;
            if self.pie {
                relocations.push(Relocation::relative(fini_addr + 8 * i as u64, t));
            }
            fini_bytes.extend_from_slice(&t.to_le_bytes());
        }

        // ----- pclntab -------------------------------------------------
        let mut pclntab_struct = None;
        let mut pclntab_bytes = Vec::new();
        if let Some(go_funcs) = &self.go_funcs {
            let mut table = GoFuncTable::new();
            for (i, (name, frame)) in go_funcs.iter().enumerate() {
                let fi = *func_index
                    .get(name)
                    .ok_or_else(|| AsmError::UndefinedFunction { name: name.clone() })?;
                table.push(GoFuncEntry {
                    start: layout.func_addrs[fi],
                    end: layout.func_addrs[fi] + layout.func_sizes[fi],
                    func_id: i as u64 + 1,
                    frame_size: *frame,
                });
            }
            pclntab_bytes = table.to_bytes();
            if self.pie {
                for (off, value) in table.address_slot_offsets() {
                    relocations.push(Relocation::relative(pclntab_addr + off as u64, value));
                }
            }
            pclntab_struct = Some(table);
        }

        // ----- synthetic dynamic-linking + unwind sections ------------
        let sym_count = self.funcs.len() + data_map.len();
        let dynsym_size = 24 * sym_count + self.sizes.extra_dynsym;
        let dynstr_size = self
            .funcs
            .iter()
            .map(|f| f.name.len() + 1)
            .sum::<usize>()
            + self.sizes.extra_dynstr
            + 64;
        let rela_size = 24 * relocations.len() + self.sizes.extra_rela + 24;
        let dynsym_addr = align_up(pclntab_addr + pclntab_bytes.len() as u64, 16);
        let dynstr_addr = dynsym_addr + dynsym_size as u64;
        let rela_addr = align_up(dynstr_addr + dynstr_size as u64, 16);
        let eh_addr = align_up(rela_addr + rela_size as u64, 16);

        // ----- unwind table --------------------------------------------
        let mut unwind = icfgp_obj::UnwindTable::new();
        let mut eh_size = 16usize; // CIE-ish header
        for (fi, f) in self.funcs.iter().enumerate() {
            let Some(spec) = &f.unwind else { continue };
            let leaf = !f.items.iter().any(|i| {
                matches!(i, Item::CallF(_))
                    || matches!(
                        i,
                        Item::I(
                            Inst::Call { .. }
                                | Inst::CallReg { .. }
                                | Inst::CallMem { .. }
                                | Inst::CallTar
                        )
                    )
            });
            let ra = spec
                .ra
                .unwrap_or_else(|| standard_ra_rule(self.arch, spec.frame_size, leaf));
            let mut call_sites = Vec::new();
            for (start, end, pad) in &spec.call_sites {
                let addr_of = |l: &String| {
                    layout.labels[fi].get(l).copied().ok_or_else(|| AsmError::UndefinedLabel {
                        func: f.name.clone(),
                        label: l.clone(),
                    })
                };
                call_sites.push(CallSiteEntry {
                    start: addr_of(start)?,
                    end: addr_of(end)?,
                    landing_pad: addr_of(pad)?,
                });
            }
            eh_size += 32 + 16 * call_sites.len();
            unwind.push(UnwindEntry {
                start: layout.func_addrs[fi],
                end: layout.func_addrs[fi] + layout.func_sizes[fi],
                frame_size: spec.frame_size,
                ra,
                call_sites,
            });
        }

        // ----- assemble the Binary -------------------------------------
        let mut bin = Binary::new(self.arch);
        bin.kind = self.kind;
        let entry_name = self.entry.as_ref().ok_or(AsmError::NoEntry)?;
        bin.entry = resolve(&RefTarget::Func(entry_name.clone()))?;
        bin.add_section(Section::new(
            names::TEXT,
            self.text_base(),
            text,
            SectionFlags::exec(),
            SectionKind::Text,
        ));
        bin.add_section(Section::new(
            names::RODATA,
            rodata_addr,
            rodata_bytes,
            SectionFlags::ro(),
            SectionKind::ReadOnlyData,
        ));
        bin.add_section(Section::new(
            names::DATA,
            data_addr,
            data_bytes,
            SectionFlags::rw(),
            SectionKind::Data,
        ));
        if !fini_bytes.is_empty() {
            bin.add_section(Section::new(
                names::FINI_ARRAY,
                fini_addr,
                fini_bytes,
                SectionFlags::ro(),
                SectionKind::Data,
            ));
        }
        if !pclntab_bytes.is_empty() {
            bin.add_section(Section::new(
                names::PCLNTAB,
                pclntab_addr,
                pclntab_bytes,
                SectionFlags::ro(),
                SectionKind::ReadOnlyData,
            ));
        }
        bin.add_section(Section::new(
            names::DYNSYM,
            dynsym_addr,
            vec![0; dynsym_size],
            SectionFlags::ro(),
            SectionKind::DynamicMeta,
        ));
        bin.add_section(Section::new(
            names::DYNSTR,
            dynstr_addr,
            vec![0; dynstr_size],
            SectionFlags::ro(),
            SectionKind::DynamicMeta,
        ));
        bin.add_section(Section::new(
            names::RELA_DYN,
            rela_addr,
            vec![0; rela_size],
            SectionFlags::ro(),
            SectionKind::DynamicMeta,
        ));
        bin.add_section(Section::new(
            names::EH_FRAME,
            eh_addr,
            vec![0; eh_size],
            SectionFlags::ro(),
            SectionKind::Unwind,
        ));

        for (fi, f) in self.funcs.iter().enumerate() {
            let mut attrs = f.attrs;
            attrs.is_finalizer = attrs.is_finalizer || self.fini.contains(&f.name);
            attrs.has_eh =
                attrs.has_eh || f.unwind.as_ref().is_some_and(|u| !u.call_sites.is_empty());
            let name = if self.stripped { String::new() } else { f.name.clone() };
            let mut sym = Symbol::func(name, layout.func_addrs[fi], layout.func_sizes[fi], f.language);
            sym.attrs = attrs;
            bin.add_symbol(sym);
        }
        let mut data_syms: Vec<(&String, &u64)> = data_map.iter().collect();
        data_syms.sort_by_key(|(_, a)| **a);
        for (name, addr) in data_syms {
            if !self.stripped {
                bin.add_symbol(Symbol::object(name.clone(), *addr, 8));
            }
        }

        bin.relocations = relocations;
        if self.link_time_relocs {
            // Presence marker: one link-time record per function symbol.
            let lt: Vec<Relocation> = layout
                .func_addrs
                .iter()
                .map(|a| Relocation::link_time(*a, *a))
                .collect();
            bin.relocations.extend(lt);
        }
        bin.unwind = unwind;
        bin.pclntab = pclntab_struct;
        bin.meta.pie = self.pie;
        bin.meta.has_link_time_relocs = self.link_time_relocs;
        bin.meta.has_symbol_versioning = self.symbol_versioning;
        bin.meta.stripped = self.stripped;
        bin.meta.languages = self.funcs.iter().map(|f| f.language).collect();
        if self.arch == Arch::Ppc64le {
            bin.toc_base = Some(toc_base);
        }
        debug_assert!(bin.validate_layout().is_ok());
        Ok(bin)
    }
}

/// Bytes needed to pad `addr` up to `align`.
fn pad_to(addr: u64, align: u64) -> u64 {
    if align <= 1 {
        return 0;
    }
    (align - (addr % align)) % align
}

fn align_up(addr: u64, align: u64) -> u64 {
    addr + pad_to(addr, align)
}

/// Compute a data section's layout: symbol addresses and total size.
fn layout_data(
    items: &[(Option<String>, DataItem)],
    base: u64,
    data_map: &mut HashMap<String, u64>,
) -> Result<u64, AsmError> {
    let mut cursor = base;
    for (sym, item) in items {
        // Pre-alignment so symbols point at aligned starts.
        let pre = match item {
            DataItem::JumpTable { entry_width, .. } => pad_to(cursor, u64::from(*entry_width)),
            DataItem::Align(a) => pad_to(cursor, u64::from(*a)),
            _ => 0,
        };
        cursor += pre;
        if let Some(name) = sym {
            if data_map.insert(name.clone(), cursor).is_some() {
                return Err(AsmError::DuplicateSymbol { name: name.clone() });
            }
        }
        cursor += match item {
            DataItem::Bytes(b) => b.len() as u64,
            DataItem::Zeros(n) => *n as u64,
            DataItem::Addr { .. } => 8,
            DataItem::JumpTable { entry_width, targets, .. } => {
                u64::from(*entry_width) * targets.len() as u64
            }
            DataItem::Align(_) => 0,
        };
    }
    Ok(cursor - base)
}

/// Append one jump-table entry, checking width overflow.
fn write_table_entry(
    out: &mut Vec<u8>,
    table: &str,
    kind: EntryKind,
    width: u8,
    target: u64,
    table_base: u64,
) -> Result<(), AsmError> {
    let value = kind.entry_value(target, table_base);
    let fits = match (kind, width) {
        (EntryKind::Absolute, 8) => true,
        (EntryKind::Absolute, 4) => u32::try_from(value).is_ok(),
        (_, 1) => i8::try_from(value).is_ok() || u8::try_from(value).is_ok(),
        (_, 2) => i16::try_from(value).is_ok() || u16::try_from(value).is_ok(),
        (_, 4) => i32::try_from(value).is_ok(),
        (_, 8) => true,
        _ => false,
    };
    if !fits {
        return Err(AsmError::TableEntryOverflow { table: table.to_string(), value, width });
    }
    out.extend_from_slice(&value.to_le_bytes()[..width as usize]);
    Ok(())
}

/// PIE absolute table entries need RELATIVE relocations and must be
/// 8 bytes wide (the loader writes full words).
fn add_table_reloc(
    relocations: &mut Vec<Relocation>,
    pie: bool,
    kind: EntryKind,
    width: u8,
    slot: u64,
    target: u64,
    table: &str,
) -> Result<(), AsmError> {
    if pie && kind == EntryKind::Absolute {
        if width != 8 {
            return Err(AsmError::TableEntryOverflow {
                table: table.to_string(),
                value: target as i64,
                width,
            });
        }
        relocations.push(Relocation::relative(slot, target));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::item::UnwindSpec;
    use icfgp_isa::{decode, Cond, SysOp, Width};
    use icfgp_obj::Language;

    fn out_and_halt() -> Vec<Item> {
        vec![
            Item::I(Inst::MovImm { dst: Reg(8), imm: 7 }),
            Item::I(Inst::Sys { op: SysOp::Out, arg: Reg(8) }),
            Item::I(Inst::Halt),
        ]
    }

    #[test]
    fn minimal_binary_builds() {
        for arch in Arch::ALL {
            let mut b = BinaryBuilder::new(arch);
            b.add_function(FuncDef::new("main", Language::C, out_and_halt()));
            b.set_entry("main");
            let bin = b.build().unwrap();
            assert_eq!(bin.entry, bin.function_named("main").unwrap().addr);
            assert!(bin.section(".text").unwrap().len() > 0);
            assert!(bin.validate_layout().is_ok());
        }
    }

    #[test]
    fn duplicate_function_rejected() {
        let mut b = BinaryBuilder::new(Arch::X64);
        b.add_function(FuncDef::new("f", Language::C, out_and_halt()));
        b.add_function(FuncDef::new("f", Language::C, out_and_halt()));
        b.set_entry("f");
        assert!(matches!(b.build(), Err(AsmError::DuplicateSymbol { .. })));
    }

    #[test]
    fn undefined_label_rejected() {
        let mut b = BinaryBuilder::new(Arch::X64);
        b.add_function(FuncDef::new("f", Language::C, vec![Item::JmpL("nowhere".into())]));
        b.set_entry("f");
        assert!(matches!(b.build(), Err(AsmError::UndefinedLabel { .. })));
    }

    #[test]
    fn branch_relaxation_grows_far_branches() {
        // A jump over ~200 bytes of nops cannot stay short on x64.
        let mut items = vec![Item::JmpL("end".into())];
        items.extend(std::iter::repeat_n(Item::I(Inst::Nop), 200));
        items.push(Item::Label("end".into()));
        items.push(Item::I(Inst::Halt));
        let mut b = BinaryBuilder::new(Arch::X64);
        b.add_function(FuncDef::new("f", Language::C, items));
        b.set_entry("f");
        let bin = b.build().unwrap();
        let text = bin.section(".text").unwrap();
        let (inst, len) = decode(text.data(), Arch::X64).unwrap();
        assert_eq!(len, 5, "must use the near form");
        assert_eq!(inst, Inst::Jump { offset: 205 });
    }

    #[test]
    fn short_branches_stay_short() {
        let mut b = BinaryBuilder::new(Arch::X64);
        b.add_function(FuncDef::new(
            "f",
            Language::C,
            vec![
                Item::JccL(Cond::Eq, "end".into()),
                Item::I(Inst::Nop),
                Item::Label("end".into()),
                Item::I(Inst::Halt),
            ],
        ));
        b.set_entry("f");
        let bin = b.build().unwrap();
        let text = bin.section(".text").unwrap();
        let (_, len) = decode(text.data(), Arch::X64).unwrap();
        assert_eq!(len, 3, "short jcc form");
    }

    #[test]
    fn functions_are_aligned_with_nop_padding() {
        let mut b = BinaryBuilder::new(Arch::X64);
        b.add_function(FuncDef::new("a", Language::C, vec![Item::I(Inst::Ret)]));
        b.add_function(FuncDef::new("b", Language::C, vec![Item::I(Inst::Halt)]));
        b.set_entry("a");
        let bin = b.build().unwrap();
        let sym_b = bin.function_named("b").unwrap();
        assert_eq!(sym_b.addr % 16, 0);
        // The padding bytes between `a` (1 byte) and `b` decode as nops.
        let text = bin.section(".text").unwrap();
        let pad = text.read(bin.function_named("a").unwrap().end(), 1).unwrap();
        let (inst, _) = decode(pad, Arch::X64).unwrap();
        assert_eq!(inst, Inst::Nop);
    }

    #[test]
    fn data_jump_table_absolute_gets_relocs_in_pie() {
        let mut b = BinaryBuilder::new(Arch::X64);
        b.pie(true);
        b.add_function(FuncDef::new(
            "f",
            Language::C,
            vec![
                Item::Label("case0".into()),
                Item::I(Inst::Nop),
                Item::Label("case1".into()),
                Item::I(Inst::Halt),
            ],
        ));
        b.push_rodata(
            Some("jt"),
            DataItem::JumpTable {
                entry_width: 8,
                kind: EntryKind::Absolute,
                targets: vec![
                    ("f".to_string(), "case0".to_string()),
                    ("f".to_string(), "case1".to_string()),
                ],
            },
        );
        b.set_entry("f");
        let bin = b.build().unwrap();
        assert_eq!(bin.runtime_relocations().count(), 2);
        // The slot contents equal the link-time label addresses.
        let jt = bin.symbols().iter().find(|s| s.name == "jt").unwrap();
        let v0 = bin.read_u64(jt.addr).unwrap();
        assert_eq!(v0, bin.function_named("f").unwrap().addr);
    }

    #[test]
    fn relative_table_entries_encode_deltas() {
        // Compact scaled tables (the aarch64 idiom) sit inline in code,
        // close to their targets, so byte entries reach.
        let mut b = BinaryBuilder::new(Arch::Aarch64);
        b.pie(true);
        b.add_function(FuncDef::new(
            "f",
            Language::C,
            vec![
                Item::JmpL("c0".into()),
                Item::InlineTable {
                    name: "jt".into(),
                    entry_width: 1,
                    kind: EntryKind::RelativeScaled,
                    targets: vec!["c0".into(), "c1".into()],
                },
                Item::Label("c0".into()),
                Item::I(Inst::Nop),
                Item::Label("c1".into()),
                Item::I(Inst::Halt),
            ],
        ));
        b.set_entry("f");
        let bin = b.build().unwrap();
        let jt = bin.symbols().iter().find(|s| s.name == "jt").unwrap();
        let e0 = bin.read(jt.addr, 1).unwrap()[0] as i8 as i64;
        let e1 = bin.read(jt.addr + 1, 1).unwrap()[0] as i8 as i64;
        let t0 = EntryKind::RelativeScaled.target_of(e0, jt.addr);
        let t1 = EntryKind::RelativeScaled.target_of(e1, jt.addr);
        assert!(bin.function_named("f").unwrap().contains(t0));
        assert_eq!(t1, t0 + 4, "c1 is one instruction after c0");
        // No relocations for relative entries, even in PIE.
        assert_eq!(bin.runtime_relocations().count(), 0);
    }

    #[test]
    fn load_addr_materialises_correct_address() {
        for arch in Arch::ALL {
            let mut b = BinaryBuilder::new(arch);
            b.pie(true);
            b.add_function(FuncDef::new(
                "f",
                Language::C,
                vec![
                    Item::LoadAddr { dst: Reg(9), target: RefTarget::Data("blob".into()), delta: 4 },
                    Item::I(Inst::Halt),
                ],
            ));
            b.push_rodata(Some("blob"), DataItem::Bytes(vec![1, 2, 3, 4, 5, 6, 7, 8]));
            b.set_entry("f");
            let bin = b.build().unwrap();
            // Just decoding the first instructions must succeed.
            let text = bin.section(".text").unwrap();
            let (first, _) = decode(text.data(), arch).unwrap();
            match arch {
                Arch::X64 => assert!(matches!(first, Inst::Lea { .. })),
                Arch::Ppc64le => assert!(matches!(first, Inst::AddShl16 { .. })),
                Arch::Aarch64 => assert!(matches!(first, Inst::AdrPage { .. })),
            }
        }
    }

    #[test]
    fn go_functable_and_fini_are_emitted() {
        let mut b = BinaryBuilder::new(Arch::X64);
        b.pie(true);
        b.add_function(FuncDef::new("main", Language::Go, out_and_halt()));
        b.add_function(FuncDef::new("dtor", Language::Go, vec![Item::I(Inst::Ret)]));
        b.set_go_functable(vec![("main".to_string(), 32)]);
        b.add_fini("dtor");
        b.set_entry("main");
        let bin = b.build().unwrap();
        let table = bin.pclntab.as_ref().unwrap();
        assert_eq!(table.len(), 1);
        let main = bin.function_named("main").unwrap();
        assert_eq!(table.find(main.addr).unwrap().func_id, 1);
        assert!(bin.section(".pclntab").is_some());
        assert!(bin.section(".fini_array").is_some());
        let dtor = bin.function_named("dtor").unwrap();
        assert!(dtor.attrs.is_finalizer);
        // fini slot holds dtor's address and is relocated in PIE.
        let fini = bin.section(".fini_array").unwrap();
        assert_eq!(bin.read_u64(fini.addr()).unwrap(), dtor.addr);
        assert!(bin.relocations.iter().any(|r| r.at == fini.addr()));
    }

    #[test]
    fn unwind_entries_resolve_call_sites() {
        let mut b = BinaryBuilder::new(Arch::X64);
        let mut items = crate::prologue(Arch::X64, 32, false);
        items.push(Item::Label("cs_start".into()));
        items.push(Item::CallF("callee".into()));
        items.push(Item::Label("cs_end".into()));
        items.extend(crate::epilogue(Arch::X64, 32, false));
        items.push(Item::Label("landing".into()));
        items.extend(crate::epilogue(Arch::X64, 32, false));
        b.add_function(
            FuncDef::new("catcher", Language::Cpp, items).with_unwind(UnwindSpec {
                frame_size: 32,
                ra: None,
                call_sites: vec![("cs_start".into(), "cs_end".into(), "landing".into())],
            }),
        );
        b.add_function(FuncDef::new("callee", Language::Cpp, vec![Item::I(Inst::Ret)]));
        b.set_entry("catcher");
        let bin = b.build().unwrap();
        let e = bin.unwind.lookup(bin.function_named("catcher").unwrap().addr).unwrap();
        assert_eq!(e.frame_size, 32);
        assert_eq!(e.call_sites.len(), 1);
        assert!(e.call_sites[0].landing_pad > e.call_sites[0].end);
        assert!(bin.function_named("catcher").unwrap().attrs.has_eh);
    }

    #[test]
    fn inline_table_lands_in_text() {
        let mut b = BinaryBuilder::new(Arch::Ppc64le);
        b.add_function(FuncDef::new(
            "f",
            Language::C,
            vec![
                Item::JmpL("after".into()),
                Item::InlineTable {
                    name: "embedded".into(),
                    entry_width: 8,
                    kind: EntryKind::Absolute,
                    targets: vec!["after".into()],
                },
                Item::Label("after".into()),
                Item::I(Inst::Halt),
            ],
        ));
        b.set_entry("f");
        let bin = b.build().unwrap();
        let tbl = bin.symbols().iter().find(|s| s.name == "embedded").unwrap();
        assert!(bin.section(".text").unwrap().contains(tbl.addr), "table embedded in code");
        let entry = bin.read_u64(tbl.addr).unwrap();
        // Entry points at the `after` label, which is inside `f`.
        assert!(bin.function_named("f").unwrap().contains(entry));
    }

    #[test]
    fn link_time_relocs_marker() {
        let mut b = BinaryBuilder::new(Arch::X64);
        b.add_function(FuncDef::new("f", Language::C, out_and_halt()));
        b.set_entry("f");
        b.link_time_relocs(true);
        let bin = b.build().unwrap();
        assert!(bin.meta.has_link_time_relocs);
        assert!(bin.relocations.iter().any(|r| r.kind == icfgp_obj::RelocKind::LinkTime));
    }

    #[test]
    fn loadfrom_storeto_emit_for_all_arches() {
        for arch in Arch::ALL {
            let mut b = BinaryBuilder::new(arch);
            b.add_function(FuncDef::new(
                "f",
                Language::C,
                vec![
                    Item::LoadFrom {
                        dst: Reg(9),
                        target: RefTarget::Data("cell".into()),
                        offset: 0,
                        width: Width::W8,
                        sign: false,
                        tmp: Reg(10),
                    },
                    Item::StoreTo {
                        src: Reg(9),
                        target: RefTarget::Data("cell".into()),
                        offset: 8,
                        width: Width::W8,
                        tmp: Reg(10),
                    },
                    Item::I(Inst::Halt),
                ],
            ));
            b.push_data(Some("cell"), DataItem::Zeros(16));
            b.set_entry("f");
            b.build().unwrap_or_else(|e| panic!("{arch}: {e}"));
        }
    }

    #[test]
    fn toc_base_set_on_ppc_only() {
        for arch in Arch::ALL {
            let mut b = BinaryBuilder::new(arch);
            b.add_function(FuncDef::new("f", Language::C, out_and_halt()));
            b.set_entry("f");
            let bin = b.build().unwrap();
            assert_eq!(bin.toc_base.is_some(), arch == Arch::Ppc64le);
        }
    }
}
