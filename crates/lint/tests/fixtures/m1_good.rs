//! M1 negative fixture: both sanctioned metering shapes.

pub fn consistent_charged(&mut self, var: u32, val: i64) -> bool {
    self.metrics.charge_checks(self.store.len());
    for ng in self.store.for_variable(var) {
        if ng.binds(var, val) {
            return false;
        }
    }
    true
}

pub fn consistent_incremental(&mut self, var: u32, val: i64) -> bool {
    let violated = self.cache.eval(var, val);
    !violated && !self.extra.is_violated(var)
}

pub fn violated_charged(&mut self, val: i64) -> Vec<usize> {
    self.metrics.charge_checks(self.tracker.higher_len() as u64);
    self.tracker.violated_higher(val).collect()
}
