//! A fixed-length table whose pages are allocated on first touch.
//!
//! A run touches a few kilobytes of globals and stack out of its 8 MB
//! address space, and a stack-distance tracker touches the lines of that
//! same footprint out of a table sized to the whole space, so allocating
//! and zeroing whole tables for every run is mostly wasted. A
//! [`PagedTable`] is a directory of `PAGE`-entry pages: an untouched page
//! reads as `T::default()` and costs one null pointer, and a page is
//! allocated, zeroed, the first time a non-default value is written into
//! it. Writes into the padding past `len` in the last page touch no entry,
//! so the callers' own range checks are the only ones needed.

use std::fmt;

/// Entries per page (a power of two).
pub const PAGE: usize = 1 << PAGE_SHIFT;
const PAGE_SHIFT: u32 = 10;

/// A table of `len` entries of `T`, all `T::default()` until written,
/// whose pages are allocated on the first non-default write.
#[derive(Clone)]
pub struct PagedTable<T> {
    pages: Vec<Option<Box<[T; PAGE]>>>,
    len: usize,
}

impl<T: Copy + Default + PartialEq> PagedTable<T> {
    /// A table of `len` default entries; allocates only the directory.
    pub fn new(len: usize) -> Self {
        PagedTable {
            pages: vec![None; len.div_ceil(PAGE)],
            len,
        }
    }

    /// The entry at `i`. The caller checks `i < len`: an index past the
    /// last page panics, one inside it reads the padding.
    #[inline]
    pub fn get(&self, i: usize) -> T {
        debug_assert!(i < self.len, "index {i} out of range {}", self.len);
        match &self.pages[i >> PAGE_SHIFT] {
            Some(page) => page[i & (PAGE - 1)],
            None => T::default(),
        }
    }

    /// Writes `v` at `i`, allocating its page unless `v` is the default
    /// and the page is untouched. The caller checks `i < len`, as for
    /// [`get`](Self::get).
    #[inline]
    pub fn set(&mut self, i: usize, v: T) {
        debug_assert!(i < self.len, "index {i} out of range {}", self.len);
        let slot = &mut self.pages[i >> PAGE_SHIFT];
        if let Some(page) = slot {
            page[i & (PAGE - 1)] = v;
        } else if v != T::default() {
            slot.insert(new_page())[i & (PAGE - 1)] = v;
        }
    }
}

impl<T> PagedTable<T> {
    /// The number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the table has no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The number of allocated pages.
    pub fn pages_touched(&self) -> usize {
        self.pages.iter().filter(|p| p.is_some()).count()
    }
}

fn new_page<T: Copy + Default>() -> Box<[T; PAGE]> {
    vec![T::default(); PAGE]
        .into_boxed_slice()
        .try_into()
        .unwrap_or_else(|_| unreachable!("a page is PAGE entries"))
}

impl<T> fmt::Debug for PagedTable<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PagedTable")
            .field("len", &self.len)
            .field("pages", &self.pages.len())
            .field("touched", &self.pages_touched())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn untouched_entries_read_default_and_allocate_nothing() {
        let mut t = PagedTable::<u32>::new(5 * PAGE + 3);
        assert_eq!(t.len(), 5 * PAGE + 3);
        assert_eq!(t.get(0), 0);
        assert_eq!(t.get(5 * PAGE + 2), 0);
        t.set(3 * PAGE, 0);
        assert_eq!(t.pages_touched(), 0, "a default write allocates nothing");
        t.set(3 * PAGE + 1, 7);
        t.set(3 * PAGE + 1, 0);
        t.set(5 * PAGE + 2, 9);
        assert_eq!(t.pages_touched(), 2);
        assert_eq!(t.get(3 * PAGE + 1), 0);
        assert_eq!(t.get(3 * PAGE + 2), 0);
        assert_eq!(t.get(5 * PAGE + 2), 9);
        assert_eq!(t.clone().get(5 * PAGE + 2), 9);
    }
}
