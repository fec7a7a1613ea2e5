//! The [`Binary`] container tying sections, symbols, relocations and
//! metadata together.

use crate::pclntab::GoFuncTable;
use crate::reloc::{RelocKind, Relocation};
use crate::section::{names, Section, SectionKind};
use crate::symbol::{Language, Symbol, SymbolKind};
use crate::unwind::UnwindTable;
use icfgp_isa::Arch;
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::fmt;

/// Executable or shared library.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BinaryKind {
    /// A main executable with an entry point.
    Exec,
    /// A shared library (always position independent).
    SharedLib,
}

/// Binary-level metadata: which language features and relocation
/// classes are present. These flags gate which rewriters can process
/// the binary at all (Table 1 of the paper).
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Metadata {
    /// Position-independent (loader may rebase; RELATIVE relocations
    /// describe every absolute address slot).
    pub pie: bool,
    /// Link-time relocations were retained (`-Wl,-q`); BOLT-style
    /// function reordering requires this.
    pub has_link_time_relocs: bool,
    /// Symbol-versioning metadata is present (common in C++/Rust
    /// shared libraries; Egalito-style IR lowering chokes on it).
    pub has_symbol_versioning: bool,
    /// Languages present in the binary.
    pub languages: BTreeSet<Language>,
    /// Symbol names were stripped.
    pub stripped: bool,
}

impl Metadata {
    /// Whether any compilation unit uses C++-style exceptions.
    #[must_use]
    pub fn has_exceptions(&self) -> bool {
        self.languages.contains(&Language::Cpp) || self.languages.contains(&Language::Rust)
    }

    /// Whether the binary embeds a Go runtime (in-binary traceback).
    #[must_use]
    pub fn has_go_runtime(&self) -> bool {
        self.languages.contains(&Language::Go)
    }
}

/// Errors from [`Binary`] consistency operations.
#[derive(Debug, Clone, PartialEq, Eq)]
#[allow(missing_docs)] // fields are named self-descriptively and shown by Display
pub enum ObjError {
    /// Two allocated sections overlap in the address space.
    OverlappingSections { a: String, b: String },
    /// Two function symbols claim intersecting address ranges (and
    /// are not aliases: same address, same size).
    OverlappingFunctions { a: u64, b: u64 },
    /// A non-empty function symbol's range wraps the address space or
    /// does not lie inside one executable section.
    FunctionOutOfBounds { addr: u64, size: u64 },
    /// A symbol's address is below its predecessor's: the symbol table
    /// is not sorted by address.
    UnsortedSymbols { addr: u64 },
    /// A read or write touched an address no section maps.
    Unmapped { addr: u64 },
    /// A named section does not exist.
    NoSuchSection { name: String },
}

impl fmt::Display for ObjError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ObjError::OverlappingSections { a, b } => {
                write!(f, "sections {a} and {b} overlap")
            }
            ObjError::OverlappingFunctions { a, b } => {
                write!(f, "function symbols at {a:#x} and {b:#x} overlap")
            }
            ObjError::FunctionOutOfBounds { addr, size } => write!(
                f,
                "function symbol at {addr:#x} (size {size:#x}) does not lie inside one \
                 executable section"
            ),
            ObjError::UnsortedSymbols { addr } => {
                write!(f, "symbol at {addr:#x} is out of address order")
            }
            ObjError::Unmapped { addr } => write!(f, "address {addr:#x} is not mapped"),
            ObjError::NoSuchSection { name } => write!(f, "no section named {name}"),
        }
    }
}

impl std::error::Error for ObjError {}

/// A complete binary: the rewriter's input and output type.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Binary {
    /// Target architecture.
    pub arch: Arch,
    /// Executable or shared library.
    pub kind: BinaryKind,
    /// Entry-point address (link-time); meaningless for libraries.
    pub entry: u64,
    /// Sections, in insertion order.
    sections: Vec<Section>,
    /// Symbols, kept sorted by address.
    symbols: Vec<Symbol>,
    /// Relocation records (`.rela_dyn` analog plus retained link-time
    /// relocations).
    pub relocations: Vec<Relocation>,
    /// DWARF-style unwind table (`.eh_frame` analog).
    pub unwind: UnwindTable,
    /// Go-style function table, when the binary embeds a Go runtime.
    pub pclntab: Option<GoFuncTable>,
    /// Feature metadata.
    pub meta: Metadata,
    /// ppc64le TOC anchor (link-time value the loader materialises into
    /// `r2`, plus load bias). `None` on other architectures.
    pub toc_base: Option<u64>,
}

impl Binary {
    /// An empty binary for `arch`.
    #[must_use]
    pub fn new(arch: Arch) -> Binary {
        Binary {
            arch,
            kind: BinaryKind::Exec,
            entry: 0,
            sections: Vec::new(),
            symbols: Vec::new(),
            relocations: Vec::new(),
            unwind: UnwindTable::new(),
            pclntab: None,
            meta: Metadata::default(),
            toc_base: None,
        }
    }

    // ----- sections ------------------------------------------------

    /// Append a section.
    pub fn add_section(&mut self, section: Section) {
        self.sections.push(section);
    }

    /// All sections.
    #[must_use]
    pub fn sections(&self) -> &[Section] {
        &self.sections
    }

    /// Mutable access to all sections.
    pub fn sections_mut(&mut self) -> &mut Vec<Section> {
        &mut self.sections
    }

    /// Find a section by name.
    #[must_use]
    pub fn section(&self, name: &str) -> Option<&Section> {
        self.sections.iter().find(|s| s.name() == name)
    }

    /// Find a section by name, mutably.
    pub fn section_mut(&mut self, name: &str) -> Option<&mut Section> {
        self.sections.iter_mut().find(|s| s.name() == name)
    }

    /// Find the section containing `addr`.
    #[must_use]
    pub fn section_at(&self, addr: u64) -> Option<&Section> {
        self.sections.iter().find(|s| s.contains(addr))
    }

    /// Find the section containing `addr`, mutably.
    pub fn section_at_mut(&mut self, addr: u64) -> Option<&mut Section> {
        self.sections.iter_mut().find(|s| s.contains(addr))
    }

    /// Read `len` bytes at a virtual address, crossing no section
    /// boundary.
    ///
    /// # Errors
    ///
    /// [`ObjError::Unmapped`] when the range is not fully inside one
    /// section.
    pub fn read(&self, addr: u64, len: usize) -> Result<&[u8], ObjError> {
        self.section_at(addr)
            .and_then(|s| s.read(addr, len))
            .ok_or(ObjError::Unmapped { addr })
    }

    /// Read a little-endian u64 at a virtual address.
    ///
    /// # Errors
    ///
    /// [`ObjError::Unmapped`] when the range is not mapped.
    pub fn read_u64(&self, addr: u64) -> Result<u64, ObjError> {
        let b = self.read(addr, 8)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    /// Overwrite bytes at a virtual address.
    ///
    /// # Errors
    ///
    /// [`ObjError::Unmapped`] when the range is not fully inside one
    /// section.
    pub fn write(&mut self, addr: u64, bytes: &[u8]) -> Result<(), ObjError> {
        let sec = self.section_at_mut(addr).ok_or(ObjError::Unmapped { addr })?;
        if sec.write(addr, bytes) {
            Ok(())
        } else {
            Err(ObjError::Unmapped { addr })
        }
    }

    /// Write a little-endian u64 at a virtual address.
    ///
    /// # Errors
    ///
    /// [`ObjError::Unmapped`] when the range is not mapped.
    pub fn write_u64(&mut self, addr: u64, value: u64) -> Result<(), ObjError> {
        self.write(addr, &value.to_le_bytes())
    }

    /// Highest one-past-the-end address of any section (where new
    /// sections get appended).
    #[must_use]
    pub fn address_space_end(&self) -> u64 {
        self.sections.iter().map(Section::end).max().unwrap_or(0)
    }

    /// Sum of allocated section sizes — what binutils' `size` reports.
    /// The paper's "size increase" columns compare this before/after
    /// rewriting.
    #[must_use]
    pub fn loaded_size(&self) -> u64 {
        self.sections
            .iter()
            .filter(|s| s.flags().alloc)
            .map(|s| s.len() as u64)
            .sum()
    }

    /// Verify that no two allocated sections overlap, that symbols are
    /// sorted by address, that every non-empty function symbol lies
    /// inside one executable section, and that no two function symbols
    /// claim intersecting ranges. Aliases (same address, same size) and
    /// empty symbols are allowed.
    ///
    /// # Errors
    ///
    /// The first violation found: [`ObjError::OverlappingSections`],
    /// [`ObjError::UnsortedSymbols`], [`ObjError::FunctionOutOfBounds`]
    /// or [`ObjError::OverlappingFunctions`].
    pub fn validate_layout(&self) -> Result<(), ObjError> {
        let mut ranges: Vec<&Section> =
            self.sections.iter().filter(|s| s.flags().alloc && !s.is_empty()).collect();
        ranges.sort_by_key(|s| s.addr());
        for w in ranges.windows(2) {
            if w[0].end() > w[1].addr() {
                return Err(ObjError::OverlappingSections {
                    a: w[0].name().to_string(),
                    b: w[1].name().to_string(),
                });
            }
        }
        if let Some(w) = self.symbols.windows(2).find(|w| w[1].addr < w[0].addr) {
            return Err(ObjError::UnsortedSymbols { addr: w[1].addr });
        }
        for s in self.functions().filter(|s| s.size > 0) {
            let inside = s.addr.checked_add(s.size).is_some_and(|end| {
                self.sections
                    .iter()
                    .any(|sec| sec.flags().exec && sec.addr() <= s.addr && end <= sec.end())
            });
            if !inside {
                return Err(ObjError::FunctionOutOfBounds { addr: s.addr, size: s.size });
            }
        }
        // Symbols are sorted by address, so each function need only be
        // checked against the one reaching furthest before it.
        let mut reach: Option<&Symbol> = None;
        for s in self.functions().filter(|s| s.size > 0) {
            if let Some(r) = reach {
                if s.addr < r.end() && (s.addr, s.size) != (r.addr, r.size) {
                    return Err(ObjError::OverlappingFunctions { a: r.addr, b: s.addr });
                }
            }
            if reach.is_none_or(|r| s.end() > r.end()) {
                reach = Some(s);
            }
        }
        Ok(())
    }

    // ----- symbols --------------------------------------------------

    /// Add a symbol (kept sorted by address).
    pub fn add_symbol(&mut self, symbol: Symbol) {
        let pos = self.symbols.partition_point(|s| s.addr < symbol.addr);
        self.symbols.insert(pos, symbol);
    }

    /// All symbols, sorted by address.
    #[must_use]
    pub fn symbols(&self) -> &[Symbol] {
        &self.symbols
    }

    /// Mutable access to the symbols (callers must preserve ordering).
    pub fn symbols_mut(&mut self) -> &mut Vec<Symbol> {
        &mut self.symbols
    }

    /// Function symbols, sorted by address.
    pub fn functions(&self) -> impl Iterator<Item = &Symbol> {
        self.symbols.iter().filter(|s| s.kind == SymbolKind::Func)
    }

    /// The function symbol whose range contains `addr`.
    ///
    /// Non-empty function symbols are sorted and do not overlap
    /// ([`Binary::validate_layout`]), so the last one starting at or
    /// below `addr` is the only candidate; of aliases, the last one.
    #[must_use]
    pub fn function_at(&self, addr: u64) -> Option<&Symbol> {
        let pos = self.symbols.partition_point(|s| s.addr <= addr);
        self.symbols[..pos]
            .iter()
            .rev()
            .find(|s| s.kind == SymbolKind::Func && s.size > 0)
            .filter(|s| s.contains(addr))
    }

    /// The function symbol starting exactly at `addr` (the first, when
    /// several do). A binary search: symbols are sorted by address.
    #[must_use]
    pub fn function_starting_at(&self, addr: u64) -> Option<&Symbol> {
        let pos = self.symbols.partition_point(|s| s.addr < addr);
        self.symbols[pos..]
            .iter()
            .take_while(|s| s.addr == addr)
            .find(|s| s.kind == SymbolKind::Func)
    }

    /// Look up a function by name.
    #[must_use]
    pub fn function_named(&self, name: &str) -> Option<&Symbol> {
        self.symbols
            .iter()
            .find(|s| s.kind == SymbolKind::Func && s.name == name)
    }

    // ----- relocations ----------------------------------------------

    /// Run-time (RELATIVE) relocations.
    pub fn runtime_relocations(&self) -> impl Iterator<Item = &Relocation> {
        self.relocations.iter().filter(|r| r.kind == RelocKind::Relative)
    }

    // ----- convenience ----------------------------------------------

    /// The `.text` section.
    ///
    /// # Errors
    ///
    /// [`ObjError::NoSuchSection`] when the binary has no `.text`.
    pub fn text(&self) -> Result<&Section, ObjError> {
        self.section(names::TEXT)
            .ok_or_else(|| ObjError::NoSuchSection { name: names::TEXT.to_string() })
    }

    /// Sections retired to scratch space (renamed originals).
    pub fn scratch_sections(&self) -> impl Iterator<Item = &Section> {
        self.sections.iter().filter(|s| s.kind() == SectionKind::Scratch)
    }

    /// Whether the binary actually *uses* exception handling: some
    /// unwind entry has call sites with landing pads. (Presence of C++
    /// code alone does not imply exception use.)
    #[must_use]
    pub fn uses_exceptions(&self) -> bool {
        self.unwind.entries().iter().any(|e| !e.call_sites.is_empty())
    }

    /// A one-line-per-section layout dump (used by the Figure 1
    /// regeneration binary).
    #[must_use]
    pub fn layout_dump(&self) -> String {
        let mut sorted: Vec<&Section> = self.sections.iter().collect();
        sorted.sort_by_key(|s| s.addr());
        let mut out = String::new();
        for s in sorted {
            out.push_str(&s.to_string());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::section::SectionFlags;

    fn bin() -> Binary {
        let mut b = Binary::new(Arch::X64);
        b.add_section(Section::new(
            names::TEXT,
            0x1000,
            vec![0; 0x100],
            SectionFlags::exec(),
            SectionKind::Text,
        ));
        b.add_section(Section::new(
            names::RODATA,
            0x2000,
            vec![0; 0x80],
            SectionFlags::ro(),
            SectionKind::ReadOnlyData,
        ));
        b.add_symbol(Symbol::func("b", 0x1080, 0x80, Language::C));
        b.add_symbol(Symbol::func("a", 0x1000, 0x80, Language::C));
        b
    }

    #[test]
    fn symbols_stay_sorted() {
        let b = bin();
        let names: Vec<&str> = b.functions().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["a", "b"]);
    }

    #[test]
    fn function_lookup() {
        let b = bin();
        assert_eq!(b.function_at(0x1000).unwrap().name, "a");
        assert_eq!(b.function_at(0x10FF).unwrap().name, "b");
        assert!(b.function_at(0x1100).is_none());
        assert_eq!(b.function_starting_at(0x1080).unwrap().name, "b");
        assert!(b.function_starting_at(0x1081).is_none());
        assert_eq!(b.function_named("b").unwrap().addr, 0x1080);
    }

    #[test]
    fn indexed_lookups_match_linear_scans_with_duplicate_addresses() {
        let mut b = bin();
        // At 0x1000: a data symbol and two function aliases.
        b.add_symbol(Symbol::object("obj_a", 0x1000, 8));
        b.add_symbol(Symbol::func("a_alias", 0x1000, 0x80, Language::C));
        // Empty function symbols at a function's start and inside one,
        // and a data symbol inside `b`.
        b.add_symbol(Symbol::func("b_marker", 0x1080, 0, Language::C));
        b.add_symbol(Symbol::func("a_inner", 0x1040, 0, Language::C));
        b.add_symbol(Symbol::object("b_data", 0x10C0, 4));
        b.validate_layout().expect("aliases and empty symbols are valid");
        let starting_at = |addr: u64| {
            b.symbols().iter().find(|s| s.kind == SymbolKind::Func && s.addr == addr)
        };
        let containing = |addr: u64| {
            b.symbols().iter().rev().find(|s| s.kind == SymbolKind::Func && s.contains(addr))
        };
        for addr in 0xFF0..0x1110 {
            assert_eq!(b.function_starting_at(addr), starting_at(addr), "{addr:#x}");
            assert_eq!(b.function_at(addr), containing(addr), "{addr:#x}");
        }
        // `add_symbol` puts a new symbol before equal addresses: the
        // order at 0x1000 is a_alias, obj_a, a; at 0x1080 b_marker, b.
        assert_eq!(b.function_starting_at(0x1000).unwrap().name, "a_alias");
        assert_eq!(b.function_at(0x1050).unwrap().name, "a");
        assert_eq!(b.function_starting_at(0x1080).unwrap().name, "b_marker");
        assert_eq!(b.function_at(0x1080).unwrap().name, "b");
    }

    #[test]
    fn read_write_u64() {
        let mut b = bin();
        b.write_u64(0x2000, 0xDEAD_BEEF).unwrap();
        assert_eq!(b.read_u64(0x2000).unwrap(), 0xDEAD_BEEF);
        assert!(b.read_u64(0x3000).is_err());
        // Cross-section reads are rejected.
        assert!(b.read(0x10FC, 8).is_err());
    }

    #[test]
    fn loaded_size_counts_alloc_only() {
        let mut b = bin();
        assert_eq!(b.loaded_size(), 0x180);
        b.add_section(Section::new(
            ".debug",
            0x9000,
            vec![0; 0x1000],
            SectionFlags::unloaded(),
            SectionKind::ReadOnlyData,
        ));
        assert_eq!(b.loaded_size(), 0x180);
    }

    #[test]
    fn overlap_detection() {
        let mut b = bin();
        assert!(b.validate_layout().is_ok());
        b.add_section(Section::new(
            ".bad",
            0x1080,
            vec![0; 0x10],
            SectionFlags::ro(),
            SectionKind::Data,
        ));
        assert!(matches!(
            b.validate_layout(),
            Err(ObjError::OverlappingSections { .. })
        ));
    }

    #[test]
    fn overlapping_function_symbols_are_rejected() {
        // `a` is [0x1000, 0x1080) and `b` is [0x1080, 0x1100).
        let mut b = bin();
        // An alias (same address and size) and an empty symbol are fine.
        b.add_symbol(Symbol::func("a_alias", 0x1000, 0x80, Language::C));
        b.add_symbol(Symbol::func("marker", 0x1040, 0, Language::C));
        assert!(b.validate_layout().is_ok());
        // Widening `a` into `b` is not.
        let mut wide = bin();
        wide.symbols_mut().iter_mut().find(|s| s.name == "a").unwrap().size = 0x88;
        assert_eq!(
            wide.validate_layout(),
            Err(ObjError::OverlappingFunctions { a: 0x1000, b: 0x1080 })
        );
        // Nor is a function nested inside another.
        b.add_symbol(Symbol::func("inner", 0x10C0, 0x4, Language::C));
        assert_eq!(
            b.validate_layout(),
            Err(ObjError::OverlappingFunctions { a: 0x1080, b: 0x10C0 })
        );
    }

    #[test]
    fn out_of_bounds_and_unsorted_symbols_are_rejected() {
        // A size that wraps the address space.
        let mut wrap = bin();
        wrap.symbols_mut().iter_mut().find(|s| s.name == "b").unwrap().size = u64::MAX;
        assert_eq!(
            wrap.validate_layout(),
            Err(ObjError::FunctionOutOfBounds { addr: 0x1080, size: u64::MAX })
        );
        // A function in a non-executable section.
        let mut data = bin();
        data.add_symbol(Symbol::func("in_rodata", 0x2000, 0x10, Language::C));
        assert_eq!(
            data.validate_layout(),
            Err(ObjError::FunctionOutOfBounds { addr: 0x2000, size: 0x10 })
        );
        // Out of address order: reported as such, not as an overlap.
        let mut unsorted = bin();
        unsorted.symbols_mut().swap(0, 1);
        assert_eq!(unsorted.validate_layout(), Err(ObjError::UnsortedSymbols { addr: 0x1000 }));
    }

    #[test]
    fn metadata_feature_queries() {
        let mut m = Metadata::default();
        assert!(!m.has_exceptions());
        m.languages.insert(Language::Rust);
        assert!(m.has_exceptions());
        m.languages.insert(Language::Go);
        assert!(m.has_go_runtime());
    }
}
