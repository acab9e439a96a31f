//! A GLIBC-style per-thread arena allocator driving the VM simulator.
//!
//! The paper's kernel speedups hinge on an observation about the default
//! user-space allocator: GLIBC's malloc creates per-thread *arenas* by
//! `mmap`-ing a large `PROT_NONE` region and then `mprotect`-ing exactly the
//! prefix of pages that currently holds live objects — growing it as the heap
//! grows and shrinking it when memory is trimmed (Sections 1 and 5.2). Those
//! `mprotect` calls move the boundary between the read-write VMA and the
//! `PROT_NONE` VMA without changing the VMA tree structure, which is precisely
//! what the speculative `mprotect` accelerates. Newly usable pages are then
//! touched, generating page faults.
//!
//! [`Arena`] reproduces that pattern against an [`Mm`]: `alloc` advances a
//! watermark (calling `mprotect(READ|WRITE)` on any newly needed pages and
//! faulting them in), `free` returns objects, and `trim` gives fully free tail
//! pages back with `mprotect(NONE)`. The Metis-like workloads in `rl-metis`
//! allocate all of their intermediate data through this type.

use std::sync::Arc;

use crate::mm::Mm;
use crate::space::VmError;
use crate::vma::{page_align_up, Protection, PAGE_SIZE};

/// A contiguous bump-allocation arena backed by the simulated VM.
#[derive(Debug)]
pub struct Arena {
    mm: Arc<Mm>,
    base: u64,
    size: u64,
    /// First byte past the last live allocation.
    used: u64,
    /// Number of bytes currently `mprotect`-ed read-write (page multiple).
    committed: u64,
    /// Bytes handed out and not yet freed.
    live_bytes: u64,
    /// Allocation counter (to decide when to trim).
    allocs: u64,
    /// Trim the committed tail whenever it exceeds the watermark by this many
    /// bytes (mirrors GLIBC's `M_TRIM_THRESHOLD`).
    trim_threshold: u64,
}

impl Arena {
    /// Default trim threshold (128 KiB, GLIBC's default).
    pub const DEFAULT_TRIM_THRESHOLD: u64 = 128 << 10;

    /// Creates a new arena of `size` bytes on `mm`.
    pub fn new(mm: Arc<Mm>, size: u64) -> Result<Self, VmError> {
        let size = page_align_up(size.max(PAGE_SIZE));
        let base = mm.mmap(None, size, Protection::NONE)?;
        Ok(Arena {
            mm,
            base,
            size,
            used: 0,
            committed: 0,
            live_bytes: 0,
            allocs: 0,
            trim_threshold: Self::DEFAULT_TRIM_THRESHOLD,
        })
    }

    /// Base address of the arena mapping.
    pub fn base(&self) -> u64 {
        self.base
    }

    /// Bytes currently committed (readable/writable).
    pub fn committed_bytes(&self) -> u64 {
        self.committed
    }

    /// Bytes handed out to callers and not yet freed.
    pub fn live_bytes(&self) -> u64 {
        self.live_bytes
    }

    /// Allocates `len` bytes, returning the simulated address.
    ///
    /// Grows the committed region with `mprotect(READ|WRITE)` when needed and
    /// touches each newly committed page (simulated page faults).
    pub fn alloc(&mut self, len: u64) -> Result<u64, VmError> {
        let len = len.max(1);
        // Align allocations to 16 bytes like malloc.
        let len = (len + 15) & !15;
        if self.used + len > self.size {
            return Err(VmError::NoSuchMapping);
        }
        let addr = self.base + self.used;
        self.used += len;
        self.live_bytes += len;
        self.allocs += 1;

        if self.used > self.committed {
            let new_committed = page_align_up(self.used);
            let grow_start = self.base + self.committed;
            let grow_len = new_committed - self.committed;
            self.mm
                .mprotect(grow_start, grow_len, Protection::READ_WRITE)?;
            // Touch every newly committed page: first-touch page faults.
            let mut page = grow_start;
            while page < grow_start + grow_len {
                self.mm.page_fault(page, true)?;
                page += PAGE_SIZE;
            }
            self.committed = new_committed;
        }
        Ok(addr)
    }

    /// Reads `len` bytes at `addr` (simulated): issues a read page fault on
    /// each touched page, as a real consumer of the data would.
    pub fn read(&self, addr: u64, len: u64) -> Result<(), VmError> {
        let mut page = addr & !(PAGE_SIZE - 1);
        let end = addr + len.max(1);
        while page < end {
            self.mm.page_fault(page, false)?;
            page += PAGE_SIZE;
        }
        Ok(())
    }

    /// Marks `len` bytes as freed. When everything is free the arena resets
    /// its watermark and trims the committed region.
    pub fn free(&mut self, len: u64) -> Result<(), VmError> {
        let len = ((len.max(1)) + 15) & !15;
        self.live_bytes = self.live_bytes.saturating_sub(len);
        if self.live_bytes == 0 {
            self.used = 0;
            self.trim()?;
        }
        Ok(())
    }

    /// Releases committed pages above the current watermark back to
    /// `PROT_NONE` if the excess exceeds the trim threshold.
    pub fn trim(&mut self) -> Result<(), VmError> {
        let needed = page_align_up(self.used);
        if self.committed > needed && self.committed - needed >= self.trim_threshold {
            let start = self.base + needed;
            let len = self.committed - needed;
            self.mm.mprotect(start, len, Protection::NONE)?;
            self.committed = needed;
        }
        Ok(())
    }

    /// Resets the arena completely: every object is freed and all pages are
    /// returned to `PROT_NONE`.
    pub fn reset(&mut self) -> Result<(), VmError> {
        self.used = 0;
        self.live_bytes = 0;
        if self.committed > 0 {
            self.mm
                .mprotect(self.base, self.committed, Protection::NONE)?;
            self.committed = 0;
        }
        Ok(())
    }
}

impl Drop for Arena {
    fn drop(&mut self) {
        // Returning the mapping mirrors GLIBC tearing down a thread arena.
        let _ = self.mm.munmap(self.base, self.size);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mm::Strategy;

    fn new_mm(strategy: Strategy) -> Arc<Mm> {
        Arc::new(Mm::new(strategy))
    }

    #[test]
    fn alloc_commits_pages_and_faults() {
        let mm = new_mm(Strategy::LIST_REFINED);
        let mut arena = Arena::new(Arc::clone(&mm), 1 << 20).unwrap();
        let a = arena.alloc(100).unwrap();
        let b = arena.alloc(100).unwrap();
        assert!(b > a);
        assert_eq!(arena.committed_bytes(), PAGE_SIZE);
        arena.alloc(8 * 1024).unwrap();
        assert!(arena.committed_bytes() >= 2 * PAGE_SIZE);
        let stats = mm.stats();
        assert!(stats.mprotects >= 2);
        assert!(stats.page_faults >= 3);
    }

    #[test]
    fn growth_is_speculation_friendly() {
        let mm = new_mm(Strategy::LIST_REFINED);
        let mut arena = Arena::new(Arc::clone(&mm), 8 << 20).unwrap();
        for _ in 0..500 {
            arena.alloc(4096).unwrap();
        }
        let stats = mm.stats();
        // After the very first structural split, every growth mprotect is a
        // boundary move and succeeds speculatively — the >99% the paper
        // observes with ftrace (Section 7.2).
        assert!(stats.speculation_success_rate() > 0.95, "{stats:?}");
    }

    #[test]
    fn free_and_trim_return_pages() {
        let mm = new_mm(Strategy::LIST_REFINED);
        let mut arena = Arena::new(Arc::clone(&mm), 8 << 20).unwrap();
        let sizes = vec![4096u64; 200];
        for _ in 0..200 {
            arena.alloc(4096).unwrap();
        }
        let committed_before = arena.committed_bytes();
        assert!(committed_before >= 200 * 4096);
        for s in sizes {
            arena.free(s).unwrap();
        }
        assert_eq!(arena.live_bytes(), 0);
        assert!(arena.committed_bytes() < committed_before);
    }

    #[test]
    fn reset_returns_everything() {
        let mm = new_mm(Strategy::STOCK);
        let mut arena = Arena::new(Arc::clone(&mm), 1 << 20).unwrap();
        arena.alloc(64 * 1024).unwrap();
        assert!(arena.committed_bytes() > 0);
        arena.reset().unwrap();
        assert_eq!(arena.committed_bytes(), 0);
        assert_eq!(arena.live_bytes(), 0);
        // The arena can be reused after a reset.
        arena.alloc(1024).unwrap();
    }

    #[test]
    fn arena_exhaustion_is_reported() {
        let mm = new_mm(Strategy::LIST_FULL);
        let mut arena = Arena::new(mm, 2 * PAGE_SIZE).unwrap();
        arena.alloc(PAGE_SIZE).unwrap();
        assert_eq!(arena.alloc(4 * PAGE_SIZE), Err(VmError::NoSuchMapping));
    }

    #[test]
    fn drop_unmaps_the_region() {
        let mm = new_mm(Strategy::LIST_REFINED);
        {
            let _arena = Arena::new(Arc::clone(&mm), 1 << 20).unwrap();
            assert_eq!(mm.vma_count(), 1);
        }
        assert_eq!(mm.vma_count(), 0);
    }

    #[test]
    fn reads_generate_read_faults() {
        let mm = new_mm(Strategy::LIST_REFINED);
        let mut arena = Arena::new(Arc::clone(&mm), 1 << 20).unwrap();
        let addr = arena.alloc(3 * PAGE_SIZE).unwrap();
        let before = mm.stats().page_faults;
        arena.read(addr, 3 * PAGE_SIZE).unwrap();
        assert!(mm.stats().page_faults >= before + 3);
    }

    #[test]
    fn concurrent_arenas_on_shared_mm() {
        // Several threads each drive their own arena against one shared Mm —
        // the actual Metis-style workload shape.
        for strategy in [Strategy::STOCK, Strategy::TREE_FULL, Strategy::LIST_REFINED] {
            let mm = new_mm(strategy);
            let mut handles = Vec::new();
            for _ in 0..4 {
                let mm = Arc::clone(&mm);
                handles.push(std::thread::spawn(move || {
                    let mut arena = Arena::new(mm, 4 << 20).unwrap();
                    for i in 0..300u64 {
                        let addr = arena.alloc(2048).unwrap();
                        arena.read(addr, 2048).unwrap();
                        if i % 64 == 63 {
                            arena.reset().unwrap();
                        }
                    }
                }));
            }
            for h in handles {
                h.join().unwrap();
            }
            assert_eq!(mm.vma_count(), 0);
        }
    }
}
