//! The kernel's memory footprint.
//!
//! Sprite's kernel occupies a fixed chunk of every machine: its text and
//! static data are wired at boot, and the file system's block cache takes
//! a further slice. The paper's memory ladder ("5, 6, and 8 megabytes")
//! is *total* memory — what the workloads actually compete for is what
//! remains. This module makes that arithmetic explicit instead of a bare
//! `kernel_reserved_frames` number.

use core::fmt;

use spur_types::{MemSize, PAGE_SIZE};

/// The kernel's wired footprint, in pages.
///
/// ```
/// use spur_mem::kernel::KernelLayout;
/// use spur_types::MemSize;
///
/// let k = KernelLayout::sprite_1989();
/// assert_eq!(k.total_pages(), 256); // ~1 MB, the era's Sprite kernel
/// assert_eq!(k.usable_frames(MemSize::MB5), 1280 - 256);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelLayout {
    /// Kernel text (instructions).
    pub text_pages: u32,
    /// Kernel static data and dynamic structures (process table, PCBs).
    pub data_pages: u32,
    /// The file system's wired block-cache headroom. (Sprite's FS cache
    /// was dynamically sized; this is its wired floor.)
    pub fs_cache_pages: u32,
}

impl KernelLayout {
    /// A 1989-vintage Sprite kernel: roughly a megabyte wired.
    pub const fn sprite_1989() -> Self {
        KernelLayout {
            text_pages: 96,     // ~384 KB of kernel text
            data_pages: 96,     // ~384 KB of static data + tables
            fs_cache_pages: 64, // ~256 KB wired FS cache floor
        }
    }

    /// Total wired pages.
    pub const fn total_pages(&self) -> u32 {
        self.text_pages + self.data_pages + self.fs_cache_pages
    }

    /// Wired footprint in bytes.
    pub(crate) const fn bytes(&self) -> u64 {
        self.total_pages() as u64 * PAGE_SIZE
    }

    /// Frames left for user pages on a machine of `mem`.
    pub const fn usable_frames(&self, mem: MemSize) -> u32 {
        mem.frames() - self.total_pages()
    }
}

impl Default for KernelLayout {
    fn default() -> Self {
        Self::sprite_1989()
    }
}

impl fmt::Display for KernelLayout {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "kernel[text {} + data {} + fs-cache {} = {} pages ({} KB)]",
            self.text_pages,
            self.data_pages,
            self.fs_cache_pages,
            self.total_pages(),
            self.bytes() / 1024
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sprite_kernel_is_about_a_megabyte() {
        let k = KernelLayout::sprite_1989();
        assert_eq!(k.total_pages(), 256);
        assert_eq!(k.bytes(), 1024 * 1024);
    }

    #[test]
    fn usable_frames_subtract_the_kernel() {
        let k = KernelLayout::sprite_1989();
        assert_eq!(k.usable_frames(MemSize::MB5), 1024);
        assert_eq!(k.usable_frames(MemSize::MB8), 1792);
    }

    #[test]
    fn display_shows_the_breakdown() {
        let text = KernelLayout::sprite_1989().to_string();
        assert!(text.contains("text"));
        assert!(text.contains("fs-cache"));
        assert!(text.contains("1024 KB"));
    }
}
