//! System configuration (Table 2.1) and memory sizing.

use core::fmt;

use crate::error::{Error, Result};
use crate::{BLOCK_SIZE, CACHE_SIZE, PAGE_SIZE};

/// Main-memory size in megabytes.
///
/// The paper evaluates 5, 6, and 8 MB configurations for the synthetic
/// workloads, and observes 8/12/16 MB development machines in Table 3.5.
///
/// ```
/// use spur_types::MemSize;
///
/// assert_eq!(MemSize::MB5.frames(), 1280);
/// assert_eq!(MemSize::new(8).bytes(), 8 * 1024 * 1024);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MemSize(u32);

impl MemSize {
    /// 5 MB, the smallest configuration in Tables 3.3/3.4/4.1.
    pub const MB5: MemSize = MemSize(5);
    /// 6 MB, the middle configuration.
    pub const MB6: MemSize = MemSize(6);
    /// 8 MB, the largest synthetic-workload configuration.
    pub const MB8: MemSize = MemSize(8);
    /// 12 MB, seen on development machines in Table 3.5.
    pub const MB12: MemSize = MemSize(12);
    /// 16 MB, the largest machine in Table 3.5.
    pub const MB16: MemSize = MemSize(16);

    /// The three memory sizes used throughout the synthetic-workload
    /// experiments (Tables 3.3, 3.4 and 4.1).
    pub const STUDY_SIZES: [MemSize; 3] = [Self::MB5, Self::MB6, Self::MB8];

    /// Creates a memory size.
    ///
    /// # Panics
    ///
    /// Panics if `megabytes` is zero.
    pub const fn new(megabytes: u32) -> Self {
        assert!(megabytes > 0, "memory size must be positive");
        MemSize(megabytes)
    }

    /// Size in megabytes.
    pub const fn megabytes(self) -> u32 {
        self.0
    }

    /// Size in bytes.
    pub const fn bytes(self) -> u64 {
        self.0 as u64 * 1024 * 1024
    }

    /// Number of 4 KB page frames.
    pub const fn frames(self) -> u32 {
        (self.bytes() / PAGE_SIZE) as u32
    }
}

impl fmt::Display for MemSize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} MB", self.0)
    }
}

/// The SPUR prototype configuration (Table 2.1) plus the simulator's
/// paging-cost knobs.
///
/// Construct with [`SystemConfig::prototype`] for the exact Table 2.1
/// machine, or via [`SystemConfig::builder`] to vary parameters for
/// sensitivity studies.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SystemConfig {
    cache_bytes: u64,
    block_bytes: u64,
    page_bytes: u64,
    instruction_buffer: bool,
    processor_cycle_ns: u32,
    backplane_cycle_ns: u32,
    mem_first_word_cycles: u32,
    mem_next_word_cycles: u32,
}

impl SystemConfig {
    /// The exact prototype configuration from Table 2.1.
    ///
    /// ```
    /// use spur_types::SystemConfig;
    ///
    /// let cfg = SystemConfig::prototype();
    /// assert_eq!(cfg.cache_bytes(), 128 * 1024);
    /// assert_eq!(cfg.processor_cycle_ns(), 150);
    /// assert!(!cfg.instruction_buffer());
    /// ```
    pub fn prototype() -> Self {
        SystemConfig {
            cache_bytes: CACHE_SIZE,
            block_bytes: BLOCK_SIZE,
            page_bytes: PAGE_SIZE,
            instruction_buffer: false,
            processor_cycle_ns: 150,
            backplane_cycle_ns: 125,
            mem_first_word_cycles: 3,
            mem_next_word_cycles: 1,
        }
    }

    /// Starts building a configuration from the prototype values.
    pub fn builder() -> SystemConfigBuilder {
        SystemConfigBuilder {
            inner: Self::prototype(),
        }
    }

    /// Cache capacity in bytes.
    pub fn cache_bytes(&self) -> u64 {
        self.cache_bytes
    }

    /// Cache block size in bytes.
    pub fn block_bytes(&self) -> u64 {
        self.block_bytes
    }

    /// Virtual-memory page size in bytes.
    pub fn page_bytes(&self) -> u64 {
        self.page_bytes
    }

    /// Number of lines in the direct-mapped cache.
    pub fn cache_lines(&self) -> u64 {
        self.cache_bytes / self.block_bytes
    }

    /// Whether the CPU's instruction buffer is enabled (disabled on the
    /// measured prototype).
    pub fn instruction_buffer(&self) -> bool {
        self.instruction_buffer
    }

    /// Processor cycle time in nanoseconds (150 ns on the prototype).
    pub fn processor_cycle_ns(&self) -> u32 {
        self.processor_cycle_ns
    }

    /// Backplane (bus) cycle time in nanoseconds.
    pub fn backplane_cycle_ns(&self) -> u32 {
        self.backplane_cycle_ns
    }

    /// Memory latency to the first word, in backplane cycles.
    pub fn mem_first_word_cycles(&self) -> u32 {
        self.mem_first_word_cycles
    }

    /// Memory latency per subsequent word, in backplane cycles.
    pub fn mem_next_word_cycles(&self) -> u32 {
        self.mem_next_word_cycles
    }

    /// Processor cycles needed to transfer one block from memory:
    /// first-word latency plus one cycle per remaining 32-bit word,
    /// converted from backplane to processor cycles (rounded up).
    pub fn block_fill_cycles(&self) -> u64 {
        let words = self.block_bytes / 4;
        let backplane =
            self.mem_first_word_cycles as u64 + (words - 1) * self.mem_next_word_cycles as u64;
        // Scale by the clock ratio, rounding up: the processor stalls for
        // an integral number of its own cycles.
        let num = backplane * self.backplane_cycle_ns as u64;
        num.div_ceil(self.processor_cycle_ns as u64)
    }

    /// Validates internal consistency (powers of two, block divides page,
    /// page divides cache).
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] describing the first violated
    /// constraint.
    pub fn validate(&self) -> Result<()> {
        fn pow2(name: &str, v: u64) -> Result<()> {
            if v.is_power_of_two() {
                Ok(())
            } else {
                Err(Error::InvalidConfig(format!(
                    "{name} must be a power of two, got {v}"
                )))
            }
        }
        pow2("cache size", self.cache_bytes)?;
        pow2("block size", self.block_bytes)?;
        pow2("page size", self.page_bytes)?;
        if self.block_bytes > self.page_bytes {
            return Err(Error::InvalidConfig(
                "block size must not exceed page size".to_string(),
            ));
        }
        if self.page_bytes > self.cache_bytes {
            return Err(Error::InvalidConfig(
                "page size must not exceed cache size".to_string(),
            ));
        }
        if self.processor_cycle_ns == 0 || self.backplane_cycle_ns == 0 {
            return Err(Error::InvalidConfig(
                "cycle times must be positive".to_string(),
            ));
        }
        Ok(())
    }
}

impl Default for SystemConfig {
    fn default() -> Self {
        Self::prototype()
    }
}

impl fmt::Display for SystemConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Cache Size            {} Kbytes",
            self.cache_bytes / 1024
        )?;
        writeln!(f, "Associativity         Direct Mapped")?;
        writeln!(f, "Block Size            {} bytes", self.block_bytes)?;
        writeln!(f, "Page Size             {} Kbytes", self.page_bytes / 1024)?;
        writeln!(
            f,
            "Instruction Buffer    {}",
            if self.instruction_buffer {
                "Enabled"
            } else {
                "Disabled"
            }
        )?;
        writeln!(f, "Processor cycle time  {}ns", self.processor_cycle_ns)?;
        writeln!(f, "Backplane cycle time  {}ns", self.backplane_cycle_ns)?;
        writeln!(
            f,
            "Time to first word    {} cycles",
            self.mem_first_word_cycles
        )?;
        write!(
            f,
            "Time to next word     {} cycles",
            self.mem_next_word_cycles
        )
    }
}

/// Builder for [`SystemConfig`], seeded with the prototype values.
///
/// ```
/// use spur_types::SystemConfig;
///
/// let cfg = SystemConfig::builder()
///     .cache_bytes(256 * 1024)
///     .instruction_buffer(true)
///     .build()
///     .expect("valid config");
/// assert_eq!(cfg.cache_lines(), 8192);
/// ```
#[derive(Debug, Clone)]
pub struct SystemConfigBuilder {
    inner: SystemConfig,
}

impl SystemConfigBuilder {
    /// Sets the cache capacity in bytes.
    pub fn cache_bytes(mut self, v: u64) -> Self {
        self.inner.cache_bytes = v;
        self
    }

    /// Sets the cache block size in bytes.
    pub fn block_bytes(mut self, v: u64) -> Self {
        self.inner.block_bytes = v;
        self
    }

    /// Sets the page size in bytes.
    pub fn page_bytes(mut self, v: u64) -> Self {
        self.inner.page_bytes = v;
        self
    }

    /// Enables or disables the instruction buffer.
    pub fn instruction_buffer(mut self, v: bool) -> Self {
        self.inner.instruction_buffer = v;
        self
    }

    /// Sets the processor cycle time in nanoseconds.
    pub fn processor_cycle_ns(mut self, v: u32) -> Self {
        self.inner.processor_cycle_ns = v;
        self
    }

    /// Sets the backplane cycle time in nanoseconds.
    pub fn backplane_cycle_ns(mut self, v: u32) -> Self {
        self.inner.backplane_cycle_ns = v;
        self
    }

    /// Sets memory first-word latency in backplane cycles.
    pub fn mem_first_word_cycles(mut self, v: u32) -> Self {
        self.inner.mem_first_word_cycles = v;
        self
    }

    /// Sets memory per-word latency in backplane cycles.
    pub fn mem_next_word_cycles(mut self, v: u32) -> Self {
        self.inner.mem_next_word_cycles = v;
        self
    }

    /// Validates and returns the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] if any constraint is violated; see
    /// [`SystemConfig::validate`].
    pub fn build(self) -> Result<SystemConfig> {
        self.inner.validate()?;
        Ok(self.inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prototype_matches_table_2_1() {
        let cfg = SystemConfig::prototype();
        assert_eq!(cfg.cache_bytes(), 128 * 1024);
        assert_eq!(cfg.block_bytes(), 32);
        assert_eq!(cfg.page_bytes(), 4096);
        assert!(!cfg.instruction_buffer());
        assert_eq!(cfg.processor_cycle_ns(), 150);
        assert_eq!(cfg.backplane_cycle_ns(), 125);
        assert_eq!(cfg.mem_first_word_cycles(), 3);
        assert_eq!(cfg.mem_next_word_cycles(), 1);
        cfg.validate().expect("prototype config is valid");
    }

    #[test]
    fn block_fill_cycles_reflects_word_count() {
        let cfg = SystemConfig::prototype();
        // 8 words: 3 + 7 = 10 backplane cycles at 125ns = 1250ns
        // = 8.33 processor cycles at 150ns, rounded up to 9.
        assert_eq!(cfg.block_fill_cycles(), 9);
    }

    #[test]
    fn mem_size_frame_counts() {
        assert_eq!(MemSize::MB5.frames(), 1280);
        assert_eq!(MemSize::MB6.frames(), 1536);
        assert_eq!(MemSize::MB8.frames(), 2048);
        assert_eq!(MemSize::MB12.frames(), 3072);
        assert_eq!(MemSize::MB16.frames(), 4096);
    }

    #[test]
    fn builder_rejects_non_power_of_two() {
        let err = SystemConfig::builder()
            .cache_bytes(100_000)
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("power of two"));
    }

    #[test]
    fn builder_rejects_block_larger_than_page() {
        let err = SystemConfig::builder()
            .block_bytes(8192)
            .page_bytes(4096)
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("block size"));
    }

    #[test]
    fn display_includes_table_rows() {
        let text = SystemConfig::prototype().to_string();
        assert!(text.contains("128 Kbytes"));
        assert!(text.contains("Direct Mapped"));
        assert!(text.contains("Disabled"));
        assert!(text.contains("150ns"));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_mem_size_panics() {
        let _ = MemSize::new(0);
    }
}
