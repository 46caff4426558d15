//! Mobility models driven by the scenario tick.
//!
//! The compiler builds one [`Walker`] per mobile client; each scenario
//! tick, [`MobilityPlan::step`] advances every walker and pushes the new
//! position into the medium via `set_pos` — which bumps the radio's
//! move count (`Medium::pos_epoch`) and invalidates the medium's cached
//! audible rows (see `rogue-phy`). Walkers carry their own forked
//! RNG, so movement is deterministic per client regardless of how many
//! other clients exist or how the executor schedules replications.

use rogue_phy::{Medium, Pos, RadioId};
use rogue_sim::{Seed, SimDuration, SimRng, SimTime};

/// How a walker moves.
#[derive(Clone, Debug)]
pub enum MobilityModel {
    /// Stay put (no `set_pos` calls at all).
    Static,
    /// Random waypoint: pick a target uniform in `area`, walk to it at
    /// a speed uniform in `speed_mps`, pause, repeat.
    RandomWaypoint {
        /// Roam area `[x0, y0, x1, y1]`.
        area: [f64; 4],
        /// Uniform speed range, m/s.
        speed_mps: (f64, f64),
        /// Dwell at each waypoint.
        pause: SimDuration,
    },
}

enum WalkState {
    /// Paused until the given instant.
    Paused { until: SimTime },
    /// En route.
    Moving { target: Pos, speed_mps: f64 },
}

/// One mobile radio.
pub struct Walker {
    radio: RadioId,
    pos: Pos,
    state: WalkState,
    model: MobilityModel,
    rng: SimRng,
}

impl Walker {
    /// A walker for `radio`, currently at `pos`.
    pub fn new(radio: RadioId, pos: Pos, model: MobilityModel, seed: Seed) -> Walker {
        Walker {
            radio,
            pos,
            state: WalkState::Paused {
                until: SimTime::ZERO,
            },
            model,
            rng: SimRng::new(seed.fork(0x3A1C)),
        }
    }

    /// Advance to `now` (one tick of `dt`); returns the new position if
    /// the walker moved.
    fn advance(&mut self, now: SimTime, dt: SimDuration) -> Option<Pos> {
        let MobilityModel::RandomWaypoint {
            area,
            speed_mps,
            pause,
        } = self.model
        else {
            return None;
        };
        loop {
            match &self.state {
                WalkState::Paused { until } => {
                    if now < *until {
                        return None;
                    }
                    let [x0, y0, x1, y1] = area;
                    let target = Pos::new(
                        x0 + self.rng.f64() * (x1 - x0),
                        y0 + self.rng.f64() * (y1 - y0),
                    );
                    let (lo, hi) = speed_mps;
                    let speed = lo + self.rng.f64() * (hi - lo);
                    self.state = WalkState::Moving {
                        target,
                        speed_mps: speed,
                    };
                }
                WalkState::Moving { target, speed_mps } => {
                    let step = speed_mps * dt.as_secs_f64();
                    let dist = self.pos.distance(*target);
                    if dist <= step {
                        self.pos = *target;
                        self.state = WalkState::Paused { until: now + pause };
                    } else {
                        let f = step / dist;
                        self.pos = Pos::new(
                            self.pos.x + (target.x - self.pos.x) * f,
                            self.pos.y + (target.y - self.pos.y) * f,
                        );
                    }
                    return Some(self.pos);
                }
            }
        }
    }
}

/// All walkers of a compiled scenario.
#[derive(Default)]
pub struct MobilityPlan {
    walkers: Vec<Walker>,
    /// Total `set_pos` calls issued so far.
    pub moves_applied: u64,
}

impl MobilityPlan {
    /// An empty plan.
    pub fn new() -> MobilityPlan {
        MobilityPlan::default()
    }

    /// Register a walker.
    pub fn add(&mut self, walker: Walker) {
        self.walkers.push(walker);
    }

    /// Walkers registered.
    pub fn len(&self) -> usize {
        self.walkers.len()
    }

    /// True when no walker is registered.
    pub fn is_empty(&self) -> bool {
        self.walkers.is_empty()
    }

    /// Advance every walker by one tick ending at `now` and apply the
    /// moves to the medium. Returns the moves applied this tick.
    pub fn step(&mut self, now: SimTime, dt: SimDuration, medium: &mut Medium) -> usize {
        let mut moved = 0;
        for w in &mut self.walkers {
            if let Some(pos) = w.advance(now, dt) {
                medium.set_pos(w.radio, pos);
                moved += 1;
            }
        }
        self.moves_applied += moved as u64;
        moved
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rogue_phy::MediumParams;

    #[test]
    fn waypoint_walker_stays_in_area_and_bumps_epochs() {
        let mut medium = Medium::new(MediumParams::default(), Seed(9));
        let radio = medium.add_radio(Pos::new(5.0, 5.0), 1, 15.0);
        let mut plan = MobilityPlan::new();
        plan.add(Walker::new(
            radio,
            Pos::new(5.0, 5.0),
            MobilityModel::RandomWaypoint {
                area: [0.0, 0.0, 50.0, 20.0],
                speed_mps: (1.0, 3.0),
                pause: SimDuration::from_millis(300),
            },
            Seed(42),
        ));
        let dt = SimDuration::from_millis(100);
        let mut now = SimTime::ZERO;
        let mut last_epoch = medium.pos_epoch(radio);
        for _ in 0..600 {
            now += dt;
            let moved = plan.step(now, dt, &mut medium);
            let epoch = medium.pos_epoch(radio);
            // Every applied move reaches the medium: the radio's move
            // count rises by exactly the moves applied.
            assert_eq!(epoch, last_epoch + moved as u64);
            last_epoch = epoch;
            let p = medium.pos(radio);
            assert!((0.0..=50.0).contains(&p.x), "{p:?}");
            assert!((0.0..=20.0).contains(&p.y), "{p:?}");
        }
        assert!(plan.moves_applied > 100, "{}", plan.moves_applied);
    }

    #[test]
    fn static_model_never_moves() {
        let mut medium = Medium::new(MediumParams::default(), Seed(9));
        let radio = medium.add_radio(Pos::new(1.0, 1.0), 1, 15.0);
        let mut plan = MobilityPlan::new();
        plan.add(Walker::new(
            radio,
            Pos::new(1.0, 1.0),
            MobilityModel::Static,
            Seed(1),
        ));
        let dt = SimDuration::from_millis(100);
        for i in 1..=50 {
            plan.step(SimTime::from_millis(i * 100), dt, &mut medium);
        }
        assert_eq!(plan.moves_applied, 0);
        assert_eq!(medium.pos_epoch(radio), 0);
    }
}
