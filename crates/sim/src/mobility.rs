//! Node mobility models.
//!
//! The paper's system model is a mobile ad-hoc network: "due to mobility, the
//! physical structure of the network is constantly evolving". The engine
//! advances positions on a fixed tick by calling the configured
//! [`MobilityModel`]. Two models are provided:
//!
//! * [`StaticPlacement`] — nodes never move; placements can be uniform
//!   random, explicit, a line, or a grid (the last two are used by the
//!   worst-case analyses of paper §3.5).
//! * [`RandomWaypoint`] — the classic model: pick a destination uniformly in
//!   the field, move to it at a uniform-random speed, pause, repeat.

use crate::geometry::{Field, Position};
use crate::rng::SimRng;
use crate::time::SimDuration;

/// A mobility model: produces initial placements and advances them in time.
pub trait MobilityModel {
    /// Initial positions for `n` nodes.
    fn initial_positions(&mut self, n: usize, field: &Field, rng: &mut SimRng) -> Vec<Position>;

    /// Advances all positions by `dt`. Implementations must keep positions
    /// inside `field`.
    fn step(
        &mut self,
        positions: &mut [Position],
        dt: SimDuration,
        field: &Field,
        rng: &mut SimRng,
    );

    /// Whether positions can ever change; static models let the engine skip
    /// mobility ticks entirely.
    fn is_static(&self) -> bool {
        false
    }
}

/// Fixed node placements.
#[derive(Clone, Debug)]
pub enum StaticPlacement {
    /// Uniformly random positions in the field.
    UniformRandom,
    /// Exactly these positions (must match the node count).
    Explicit(Vec<Position>),
    /// Evenly spaced along a horizontal line through the field's centre,
    /// `spacing` metres apart, starting at x = 0.
    Line {
        /// Distance between consecutive nodes in metres.
        spacing: f64,
    },
    /// A square-ish grid filling the field.
    Grid,
}

impl MobilityModel for StaticPlacement {
    fn initial_positions(&mut self, n: usize, field: &Field, rng: &mut SimRng) -> Vec<Position> {
        match self {
            StaticPlacement::UniformRandom => (0..n).map(|_| field.random_position(rng)).collect(),
            StaticPlacement::Explicit(ps) => {
                assert_eq!(
                    ps.len(),
                    n,
                    "explicit placement has {} positions for {} nodes",
                    ps.len(),
                    n
                );
                ps.clone()
            }
            StaticPlacement::Line { spacing } => {
                let y = field.height / 2.0;
                (0..n)
                    .map(|i| field.clamp(Position::new(i as f64 * *spacing, y)))
                    .collect()
            }
            StaticPlacement::Grid => {
                let cols = (n as f64).sqrt().ceil() as usize;
                let rows = n.div_ceil(cols);
                let dx = field.width / cols as f64;
                let dy = field.height / rows as f64;
                (0..n)
                    .map(|i| {
                        let c = i % cols;
                        let r = i / cols;
                        Position::new((c as f64 + 0.5) * dx, (r as f64 + 0.5) * dy)
                    })
                    .collect()
            }
        }
    }

    fn step(&mut self, _: &mut [Position], _: SimDuration, _: &Field, _: &mut SimRng) {}

    fn is_static(&self) -> bool {
        true
    }
}

/// Per-node random-waypoint state.
#[derive(Clone, Copy, Debug)]
enum WaypointState {
    Moving { target: Position, speed_mps: f64 },
    Pausing { remaining: SimDuration },
}

/// The random waypoint model.
#[derive(Clone, Debug)]
pub struct RandomWaypoint {
    /// Minimum speed in metres per second (must be positive so nodes cannot
    /// freeze forever — the classic RWP pitfall).
    pub min_speed_mps: f64,
    /// Maximum speed in metres per second.
    pub max_speed_mps: f64,
    /// Pause duration on reaching a waypoint.
    pub pause: SimDuration,
    states: Vec<WaypointState>,
}

impl RandomWaypoint {
    /// Creates the model.
    ///
    /// # Panics
    ///
    /// Panics if speeds are not `0 < min <= max`.
    pub fn new(min_speed_mps: f64, max_speed_mps: f64, pause: SimDuration) -> Self {
        assert!(
            min_speed_mps > 0.0 && min_speed_mps <= max_speed_mps,
            "need 0 < min_speed <= max_speed"
        );
        RandomWaypoint {
            min_speed_mps,
            max_speed_mps,
            pause,
            states: Vec::new(),
        }
    }

    fn random_speed(&self, rng: &mut SimRng) -> f64 {
        self.min_speed_mps + rng.gen_f64() * (self.max_speed_mps - self.min_speed_mps)
    }
}

impl MobilityModel for RandomWaypoint {
    fn initial_positions(&mut self, n: usize, field: &Field, rng: &mut SimRng) -> Vec<Position> {
        let positions: Vec<Position> = (0..n).map(|_| field.random_position(rng)).collect();
        self.states = (0..n)
            .map(|_| WaypointState::Moving {
                target: field.random_position(rng),
                speed_mps: self.random_speed(rng),
            })
            .collect();
        positions
    }

    fn step(
        &mut self,
        positions: &mut [Position],
        dt: SimDuration,
        field: &Field,
        rng: &mut SimRng,
    ) {
        let dt_s = dt.as_secs_f64();
        for (i, pos) in positions.iter_mut().enumerate() {
            match self.states[i] {
                WaypointState::Moving { target, speed_mps } => {
                    let (next, reached) = pos.step_towards(&target, speed_mps * dt_s);
                    *pos = next;
                    if reached {
                        self.states[i] = if self.pause > SimDuration::ZERO {
                            WaypointState::Pausing {
                                remaining: self.pause,
                            }
                        } else {
                            WaypointState::Moving {
                                target: field.random_position(rng),
                                speed_mps: self.random_speed(rng),
                            }
                        };
                    }
                }
                WaypointState::Pausing { remaining } => {
                    if remaining <= dt {
                        self.states[i] = WaypointState::Moving {
                            target: field.random_position(rng),
                            speed_mps: self.random_speed(rng),
                        };
                    } else {
                        self.states[i] = WaypointState::Pausing {
                            remaining: remaining - dt,
                        };
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn field() -> Field {
        Field::new(100.0, 100.0)
    }

    #[test]
    fn static_models_do_not_move() {
        let mut m = StaticPlacement::UniformRandom;
        let mut rng = SimRng::new(1);
        let f = field();
        let mut ps = m.initial_positions(5, &f, &mut rng);
        let before = ps.clone();
        m.step(&mut ps, SimDuration::from_secs(10), &f, &mut rng);
        assert_eq!(ps, before);
        assert!(m.is_static());
    }

    #[test]
    fn explicit_placement_round_trips() {
        let want = vec![Position::new(1.0, 2.0), Position::new(3.0, 4.0)];
        let mut m = StaticPlacement::Explicit(want.clone());
        let mut rng = SimRng::new(1);
        assert_eq!(m.initial_positions(2, &field(), &mut rng), want);
    }

    #[test]
    #[should_panic(expected = "explicit placement")]
    fn explicit_placement_wrong_count_panics() {
        let mut m = StaticPlacement::Explicit(vec![Position::new(1.0, 2.0)]);
        let mut rng = SimRng::new(1);
        m.initial_positions(2, &field(), &mut rng);
    }

    #[test]
    fn line_placement_spacing() {
        let mut m = StaticPlacement::Line { spacing: 10.0 };
        let mut rng = SimRng::new(1);
        let ps = m.initial_positions(4, &field(), &mut rng);
        assert_eq!(ps[0], Position::new(0.0, 50.0));
        assert_eq!(ps[3], Position::new(30.0, 50.0));
    }

    #[test]
    fn grid_placement_covers_field() {
        let mut m = StaticPlacement::Grid;
        let mut rng = SimRng::new(1);
        let f = field();
        let ps = m.initial_positions(9, &f, &mut rng);
        assert_eq!(ps.len(), 9);
        for p in &ps {
            assert!(f.contains(*p));
        }
        // 3x3 grid in a 100x100 field: first cell centre.
        assert!((ps[0].x - 100.0 / 6.0).abs() < 1e-9);
    }

    #[test]
    fn waypoint_nodes_move_and_stay_in_field() {
        let mut m = RandomWaypoint::new(1.0, 5.0, SimDuration::from_secs(1));
        let mut rng = SimRng::new(2);
        let f = field();
        let mut ps = m.initial_positions(10, &f, &mut rng);
        let before = ps.clone();
        for _ in 0..100 {
            m.step(&mut ps, SimDuration::from_millis(200), &f, &mut rng);
            for p in &ps {
                assert!(f.contains(*p), "escaped field: {p:?}");
            }
        }
        let moved = ps
            .iter()
            .zip(&before)
            .filter(|(a, b)| a.distance(b) > 1.0)
            .count();
        assert!(moved >= 8, "only {moved} nodes moved");
    }

    #[test]
    fn waypoint_pause_holds_position() {
        let mut m = RandomWaypoint::new(100.0, 100.0, SimDuration::from_secs(60));
        let mut rng = SimRng::new(3);
        let f = field();
        let mut ps = m.initial_positions(1, &f, &mut rng);
        // Fast speed: reaches waypoint quickly, then must pause for 60 s.
        for _ in 0..50 {
            m.step(&mut ps, SimDuration::from_millis(200), &f, &mut rng);
        }
        let at_pause = ps[0];
        m.step(&mut ps, SimDuration::from_millis(200), &f, &mut rng);
        assert_eq!(ps[0], at_pause, "node moved during pause");
    }

    #[test]
    #[should_panic(expected = "min_speed")]
    fn waypoint_rejects_zero_speed() {
        RandomWaypoint::new(0.0, 1.0, SimDuration::ZERO);
    }
}
