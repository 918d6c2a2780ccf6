//! Reference kinds and the two-bit protection field.

use core::fmt;

/// The kind of a processor memory reference.
///
/// SPUR's cache controller counts instruction fetches, processor reads, and
/// processor writes separately (and the misses of each), so the simulator
/// carries the distinction on every reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// An instruction fetch (always a read; never sets dirty state).
    InstrFetch,
    /// A processor data read.
    Read,
    /// A processor data write.
    Write,
}

impl AccessKind {
    /// Returns `true` for [`AccessKind::Write`].
    pub const fn is_write(self) -> bool {
        matches!(self, AccessKind::Write)
    }
}

impl fmt::Display for AccessKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AccessKind::InstrFetch => "ifetch",
            AccessKind::Read => "read",
            AccessKind::Write => "write",
        };
        f.write_str(s)
    }
}

/// The two-bit protection field stored in each PTE and cached with each
/// cache line (the `PR` field of Figure 3.2).
///
/// Ordering is meaningful: a higher variant grants strictly more access, so
/// "increase the protection level to read-write" (Section 3.1) is
/// `Protection::ReadWrite > Protection::ReadOnly`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum Protection {
    /// No access permitted; any reference faults.
    #[default]
    None = 0,
    /// Execute-only (instruction fetch permitted, data access faults).
    Execute = 1,
    /// Read (and execute) permitted, writes fault.
    ReadOnly = 2,
    /// Full read/write access.
    ReadWrite = 3,
}

impl Protection {
    /// Decodes the two-bit field.
    ///
    /// # Panics
    ///
    /// Panics if `bits >= 4`.
    pub const fn from_bits(bits: u8) -> Self {
        match bits {
            0 => Protection::None,
            1 => Protection::Execute,
            2 => Protection::ReadOnly,
            3 => Protection::ReadWrite,
            _ => panic!("protection field is two bits"),
        }
    }

    /// Encodes to the two-bit field.
    pub const fn bits(self) -> u8 {
        self as u8
    }

    /// Does this protection level permit the given access kind?
    ///
    /// ```
    /// use spur_types::{AccessKind, Protection};
    ///
    /// assert!(Protection::ReadOnly.permits(AccessKind::Read));
    /// assert!(!Protection::ReadOnly.permits(AccessKind::Write));
    /// assert!(Protection::Execute.permits(AccessKind::InstrFetch));
    /// assert!(!Protection::None.permits(AccessKind::InstrFetch));
    /// ```
    pub const fn permits(self, kind: AccessKind) -> bool {
        match kind {
            AccessKind::InstrFetch => (self as u8) >= Protection::Execute as u8,
            AccessKind::Read => (self as u8) >= Protection::ReadOnly as u8,
            AccessKind::Write => (self as u8) >= Protection::ReadWrite as u8,
        }
    }
}

impl fmt::Display for Protection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Protection::None => "--",
            Protection::Execute => "x-",
            Protection::ReadOnly => "r-",
            Protection::ReadWrite => "rw",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn protection_bits_round_trip() {
        for bits in 0..4u8 {
            assert_eq!(Protection::from_bits(bits).bits(), bits);
        }
    }

    #[test]
    #[should_panic(expected = "two bits")]
    fn protection_rejects_wide_bits() {
        let _ = Protection::from_bits(4);
    }

    #[test]
    fn protection_ordering_matches_access_strength() {
        assert!(Protection::ReadWrite > Protection::ReadOnly);
        assert!(Protection::ReadOnly > Protection::Execute);
        assert!(Protection::Execute > Protection::None);
    }

    #[test]
    fn permits_matrix() {
        use AccessKind::*;
        use Protection::*;
        let cases = [
            (None, InstrFetch, false),
            (None, Read, false),
            (None, Write, false),
            (Execute, InstrFetch, true),
            (Execute, Read, false),
            (Execute, Write, false),
            (ReadOnly, InstrFetch, true),
            (ReadOnly, Read, true),
            (ReadOnly, Write, false),
            (ReadWrite, InstrFetch, true),
            (ReadWrite, Read, true),
            (ReadWrite, Write, true),
        ];
        for (prot, kind, expect) in cases {
            assert_eq!(prot.permits(kind), expect, "{prot} {kind}");
        }
    }

    #[test]
    fn write_detection() {
        assert!(AccessKind::Write.is_write());
        assert!(!AccessKind::Read.is_write());
        assert!(!AccessKind::InstrFetch.is_write());
    }
}
