//! M1 positional-loop fixture: `entries()`/`indices()` is the store's
//! one iteration surface, metered or not, so indexing the store by raw
//! position is flagged.

pub fn sweep(&mut self) -> u32 {
    let mut hits = 0;
    for i in 0..self.store.len() {
        self.charge_checks(1);
        if self.store.get(i).is_some() {
            hits += 1;
        }
    }
    hits
}

pub fn sweep_by_handle(&mut self) -> u32 {
    let mut hits = 0;
    for (_idx, ng) in self.store.entries() {
        self.charge_checks(1);
        hits += ng.len() as u32;
    }
    hits
}
