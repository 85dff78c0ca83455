//! metric-catalogue fixture: one name emitted and declared, one emitted and
//! not declared, one declared and emitted by test code only, and one
//! declared and emitted nowhere.

pub struct Obs;

impl Obs {
    pub fn counter_inc(&self, _name: &'static str) {}
}

pub fn serve(obs: &Obs) {
    obs.counter_inc("app.requests");
    obs.counter_inc("app.typo");
}

#[cfg(test)]
mod tests {
    #[test]
    fn counts() {
        super::Obs.counter_inc("app.test_only");
    }
}
