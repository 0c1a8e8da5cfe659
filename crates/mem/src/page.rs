//! Page-residency model for page-fault injection.

use crate::{Address, MemFault, PageAddr};
use std::collections::HashSet;
use std::hash::{Hash, Hasher};

/// Tracks which pages are resident, so the simulator can inject page faults.
///
/// The paper's interruption-filtering design (§II.C) hinges on page faults
/// occurring *inside* transactions: a filtered fault aborts the transaction
/// without trapping to the OS, and a program that never touches the page
/// non-transactionally will loop forever. The simulator reproduces exactly
/// that behavior; tests in `ztm-core` exercise it.
///
/// By default every page is resident ([`PageTable::all_resident`]), which is
/// what throughput benchmarks want. Tests evict specific pages with
/// [`PageTable::evict`].
///
/// # Examples
///
/// ```
/// use ztm_mem::{Address, PageTable};
///
/// let mut pt = PageTable::all_resident();
/// assert!(pt.check(Address::new(0x5000)).is_ok());
/// pt.evict(Address::new(0x5000).page());
/// assert!(pt.check(Address::new(0x5000)).is_err());
/// pt.page_in(Address::new(0x5000).page());
/// assert!(pt.check(Address::new(0x5000)).is_ok());
/// ```
#[derive(Debug, Clone, Default)]
pub struct PageTable {
    /// Pages explicitly marked non-resident. (Inverted set: the common case
    /// is "everything resident", so we track the exceptions.)
    evicted: HashSet<PageAddr>,
    /// Count of faults taken, for statistics.
    faults: u64,
    /// Bumped on every residency change ([`evict`](Self::evict) /
    /// [`page_in`](Self::page_in)). A cached "this address was resident"
    /// verdict stays valid exactly while the epoch is unchanged.
    epoch: u64,
}

impl PageTable {
    /// Creates a page table with every page resident.
    pub fn all_resident() -> Self {
        Self::default()
    }

    /// Checks residency of the page containing `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`MemFault::PageFault`] if the page has been evicted.
    pub fn check(&self, addr: Address) -> Result<(), MemFault> {
        // Benchmarks never evict, so the common case is an empty set; skip
        // the hash entirely rather than paying SipHash on every access.
        if self.evicted.is_empty() {
            return Ok(());
        }
        let page = addr.page();
        if self.evicted.contains(&page) {
            Err(MemFault::PageFault(page))
        } else {
            Ok(())
        }
    }

    /// Like [`check`](Self::check) but also counts the fault if one occurs.
    pub fn access(&mut self, addr: Address) -> Result<(), MemFault> {
        let r = self.check(addr);
        if r.is_err() {
            self.faults += 1;
        }
        r
    }

    /// Marks a page non-resident.
    pub fn evict(&mut self, page: PageAddr) {
        self.evicted.insert(page);
        self.epoch += 1;
    }

    /// Marks a page resident (models the OS paging it in).
    pub fn page_in(&mut self, page: PageAddr) {
        self.evicted.remove(&page);
        self.epoch += 1;
    }

    /// The residency epoch (see the `epoch` field).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Whether the given page is resident.
    pub fn is_resident(&self, page: PageAddr) -> bool {
        !self.evicted.contains(&page)
    }

    /// Total number of faults observed through [`access`](Self::access).
    pub fn fault_count(&self) -> u64 {
        self.faults
    }
}

/// Folds the evicted pages in address order, the fault count and the
/// residency epoch.
impl Hash for PageTable {
    fn hash<H: Hasher>(&self, state: &mut H) {
        let PageTable {
            evicted,
            faults,
            epoch,
        } = self;
        let mut pages: Vec<PageAddr> = evicted.iter().copied().collect();
        pages.sort_unstable();
        pages.hash(state);
        faults.hash(state);
        epoch.hash(state);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_all_resident() {
        let pt = PageTable::all_resident();
        assert!(pt.check(Address::new(u64::MAX - 8)).is_ok());
        assert!(pt.is_resident(PageAddr::new(123)));
    }

    #[test]
    fn evict_and_page_in() {
        let mut pt = PageTable::all_resident();
        let page = Address::new(0x2000).page();
        pt.evict(page);
        assert_eq!(
            pt.check(Address::new(0x2fff)),
            Err(MemFault::PageFault(page))
        );
        // Neighboring page unaffected.
        assert!(pt.check(Address::new(0x3000)).is_ok());
        pt.page_in(page);
        assert!(pt.check(Address::new(0x2000)).is_ok());
    }

    #[test]
    fn access_counts_faults() {
        let mut pt = PageTable::all_resident();
        pt.evict(PageAddr::new(1));
        assert!(pt.access(Address::new(0x1000)).is_err());
        assert!(pt.access(Address::new(0x1008)).is_err());
        assert!(pt.access(Address::new(0x0008)).is_ok());
        assert_eq!(pt.fault_count(), 2);
    }
}
