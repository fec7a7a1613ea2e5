//! Sections: named, addressed byte ranges with permissions.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Well-known section names used across the workspace.
pub mod names {
    /// Original machine code.
    pub const TEXT: &str = ".text";
    /// Read-only data (jump tables, string literals).
    pub const RODATA: &str = ".rodata";
    /// Writable data.
    pub const DATA: &str = ".data";
    /// Dynamic symbol table.
    pub const DYNSYM: &str = ".dynsym";
    /// Dynamic string table.
    pub const DYNSTR: &str = ".dynstr";
    /// Dynamic relocation records.
    pub const RELA_DYN: &str = ".rela_dyn";
    /// DWARF-style unwind information (kept unmodified by rewriting).
    pub const EH_FRAME: &str = ".eh_frame";
    /// Go-style function table backing the in-binary unwinder.
    pub const PCLNTAB: &str = ".pclntab";
    /// Finalizer (destructor) function-pointer array.
    pub const FINI_ARRAY: &str = ".fini_array";
    /// Relocated code + instrumentation emitted by rewriting.
    pub const INSTR: &str = ".instr";
    /// Relocated→original return-address map emitted by rewriting.
    pub const RA_MAP: &str = ".ra_map";
    /// Trap-trampoline address→target map emitted by rewriting.
    pub const TRAP_MAP: &str = ".trap_map";
    /// Cloned jump tables emitted by `jt`/`func-ptr` rewriting.
    pub const JT_CLONE: &str = ".jt_clone";
    /// Prefix applied to sections renamed into scratch space
    /// (`.dynsym` → `.old.dynsym` and so on).
    pub const OLD_PREFIX: &str = ".old";
}

/// What a section semantically contains.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SectionKind {
    /// Executable code.
    Text,
    /// Read-only data.
    ReadOnlyData,
    /// Writable data.
    Data,
    /// Dynamic-linking metadata (symbols, strings, relocation records).
    DynamicMeta,
    /// Unwind metadata.
    Unwind,
    /// Rewriter-emitted runtime maps (`.ra_map`, `.trap_map`).
    RuntimeMap,
    /// Scratch space: a renamed, no-longer-referenced original section
    /// that trampolines may be installed into.
    Scratch,
}

/// Section permissions. Mirrors ELF's `SHF_ALLOC`/`SHF_WRITE`/
/// `SHF_EXECINSTR` triple.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct SectionFlags {
    /// Loaded into memory at run time (counted by `size`-style tools).
    pub alloc: bool,
    /// Writable at run time.
    pub write: bool,
    /// Executable.
    pub exec: bool,
}

impl SectionFlags {
    /// Allocated + executable (code).
    #[must_use]
    pub fn exec() -> SectionFlags {
        SectionFlags { alloc: true, write: false, exec: true }
    }

    /// Allocated + read-only.
    #[must_use]
    pub fn ro() -> SectionFlags {
        SectionFlags { alloc: true, write: false, exec: false }
    }

    /// Allocated + writable.
    #[must_use]
    pub fn rw() -> SectionFlags {
        SectionFlags { alloc: true, write: true, exec: false }
    }

    /// Not loaded at run time (debug-style sections).
    #[must_use]
    pub fn unloaded() -> SectionFlags {
        SectionFlags { alloc: false, write: false, exec: false }
    }
}

/// A named byte range at a fixed link-time virtual address.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Section {
    name: String,
    addr: u64,
    data: Vec<u8>,
    flags: SectionFlags,
    kind: SectionKind,
}

impl Section {
    /// Create a section.
    #[must_use]
    pub fn new(
        name: impl Into<String>,
        addr: u64,
        data: Vec<u8>,
        flags: SectionFlags,
        kind: SectionKind,
    ) -> Section {
        Section { name: name.into(), addr, data, flags, kind }
    }

    /// Section name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Rename the section (used to retire `.dynsym` and friends into
    /// scratch space).
    pub fn set_name(&mut self, name: impl Into<String>) {
        self.name = name.into();
    }

    /// Link-time virtual start address.
    #[must_use]
    pub fn addr(&self) -> u64 {
        self.addr
    }

    /// Move the section to a new virtual address.
    pub fn set_addr(&mut self, addr: u64) {
        self.addr = addr;
    }

    /// One-past-the-end virtual address (saturating: a section that
    /// would wrap the address space ends at `u64::MAX`).
    #[must_use]
    pub fn end(&self) -> u64 {
        self.addr.saturating_add(self.data.len() as u64)
    }

    /// Section size in bytes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the section is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Section contents.
    #[must_use]
    pub fn data(&self) -> &[u8] {
        &self.data
    }

    /// Mutable section contents.
    pub fn data_mut(&mut self) -> &mut Vec<u8> {
        &mut self.data
    }

    /// Permissions.
    #[must_use]
    pub fn flags(&self) -> SectionFlags {
        self.flags
    }

    /// Change permissions.
    pub fn set_flags(&mut self, flags: SectionFlags) {
        self.flags = flags;
    }

    /// Semantic kind.
    #[must_use]
    pub fn kind(&self) -> SectionKind {
        self.kind
    }

    /// Change the semantic kind (e.g. retiring a section to scratch).
    pub fn set_kind(&mut self, kind: SectionKind) {
        self.kind = kind;
    }

    /// Whether `addr` lies inside this section.
    #[must_use]
    pub fn contains(&self, addr: u64) -> bool {
        addr >= self.addr && addr < self.end()
    }

    /// The data offsets of `len` bytes at virtual address `addr`, or
    /// `None` when the range starts or ends outside the section.
    fn range(&self, addr: u64, len: usize) -> Option<std::ops::Range<usize>> {
        let end = addr.checked_add(u64::try_from(len).ok()?)?;
        if !self.contains(addr) || end > self.end() {
            return None;
        }
        let off = (addr - self.addr) as usize;
        Some(off..off + len)
    }

    /// Read `len` bytes at virtual address `addr`.
    #[must_use]
    pub fn read(&self, addr: u64, len: usize) -> Option<&[u8]> {
        self.range(addr, len).map(|r| &self.data[r])
    }

    /// Overwrite bytes at virtual address `addr`. Returns `false` when
    /// the range falls outside the section.
    pub fn write(&mut self, addr: u64, bytes: &[u8]) -> bool {
        let Some(r) = self.range(addr, bytes.len()) else { return false };
        self.data[r].copy_from_slice(bytes);
        true
    }
}

impl fmt::Display for Section {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<14} {:#010x}..{:#010x} ({} bytes){}{}{}",
            self.name,
            self.addr,
            self.end(),
            self.len(),
            if self.flags.alloc { " A" } else { "" },
            if self.flags.write { "W" } else { "" },
            if self.flags.exec { "X" } else { "" },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sec() -> Section {
        Section::new(".text", 0x1000, vec![0xAA; 16], SectionFlags::exec(), SectionKind::Text)
    }

    #[test]
    fn contains_and_bounds() {
        let s = sec();
        assert!(s.contains(0x1000));
        assert!(s.contains(0x100F));
        assert!(!s.contains(0x1010));
        assert!(!s.contains(0xFFF));
        assert_eq!(s.end(), 0x1010);
    }

    #[test]
    fn read_write_roundtrip() {
        let mut s = sec();
        assert!(s.write(0x1004, &[1, 2, 3]));
        assert_eq!(s.read(0x1004, 3), Some(&[1u8, 2, 3][..]));
        // Out-of-bounds writes are rejected and leave data untouched.
        assert!(!s.write(0x100E, &[9, 9, 9]));
        assert_eq!(s.read(0x100E, 2), Some(&[0xAA, 0xAA][..]));
        assert_eq!(s.read(0x100E, 3), None);
        // Lengths that would wrap the address space are out of bounds,
        // not a panic.
        assert_eq!(s.read(0x1004, usize::MAX), None);
        let wrapping =
            Section::new(".hi", u64::MAX - 3, vec![0; 16], SectionFlags::exec(), SectionKind::Text);
        assert_eq!(wrapping.end(), u64::MAX);
        assert_eq!(wrapping.read(u64::MAX - 1, 8), None);
    }

    #[test]
    fn display_shows_perms() {
        let s = sec();
        let d = s.to_string();
        assert!(d.contains(".text"), "{d}");
        assert!(d.ends_with("AX"), "{d}");
    }
}
