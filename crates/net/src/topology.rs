//! Problem slicing: what the coordinator ships each agent process.
//!
//! An [`AgentSlice`] is the minimal view of the
//! [`DistributedCsp`](discsp_core::DistributedCsp) one agent needs to
//! run: its variable, domain, initial value, the nogoods mentioning its
//! variable, its neighbor/owner map, and the algorithm to instantiate
//! ([`AlgoSpec`]). Slices are seated coordinator-side exactly as the
//! in-process solvers seat their agents
//! ([`DistributedCsp::seat`](discsp_core::DistributedCsp::seat)), so a
//! malformed problem is rejected before any process is spawned.

use discsp_awc::AwcConfig;
use discsp_core::{
    AgentId, Assignment, DistributedCsp, Domain, Nogood, Value, VariableId, Wire, WireError,
    WireReader,
};
use discsp_dba::WeightMode;

use crate::NetError;

/// Which algorithm an agent process should instantiate, with its
/// configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlgoSpec {
    /// Asynchronous weak-commitment search with the given learning
    /// configuration.
    Awc(AwcConfig),
    /// Distributed breakout with the given weight placement mode.
    Dba(WeightMode),
}

impl Wire for AlgoSpec {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            AlgoSpec::Awc(config) => {
                out.push(0);
                config.encode(out);
            }
            AlgoSpec::Dba(mode) => {
                out.push(1);
                mode.encode(out);
            }
        }
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        match r.u8("AlgoSpec")? {
            0 => Ok(AlgoSpec::Awc(AwcConfig::decode(r)?)),
            1 => Ok(AlgoSpec::Dba(WeightMode::decode(r)?)),
            tag => Err(WireError::BadTag {
                context: "AlgoSpec",
                tag,
            }),
        }
    }
}

/// One agent's slice of the problem, shipped in the `Assign` frame.
#[derive(Debug, Clone, PartialEq)]
pub struct AgentSlice {
    /// The agent this slice belongs to.
    pub agent: AgentId,
    /// The variable the agent owns.
    pub var: VariableId,
    /// The variable's domain.
    pub domain: Domain,
    /// The initial value (validated to be in the domain).
    pub init: Value,
    /// Every problem nogood mentioning the variable.
    pub nogoods: Vec<Nogood>,
    /// The variable's neighbors and their owning agents.
    pub neighbors: Vec<(VariableId, AgentId)>,
    /// The algorithm to instantiate.
    pub algo: AlgoSpec,
}

impl Wire for AgentSlice {
    fn encode(&self, out: &mut Vec<u8>) {
        self.agent.encode(out);
        self.var.encode(out);
        self.domain.encode(out);
        self.init.encode(out);
        self.nogoods.encode(out);
        self.neighbors.encode(out);
        self.algo.encode(out);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let agent = AgentId::decode(r)?;
        let var = VariableId::decode(r)?;
        let domain = Domain::decode(r)?;
        let init = Value::decode(r)?;
        let nogoods = Vec::<Nogood>::decode(r)?;
        let neighbors = Vec::<(VariableId, AgentId)>::decode(r)?;
        let algo = AlgoSpec::decode(r)?;
        if !domain.contains(init) {
            return Err(WireError::Invalid {
                context: "AgentSlice.init",
            });
        }
        Ok(AgentSlice {
            agent,
            var,
            domain,
            init,
            nogoods,
            neighbors,
            algo,
        })
    }
}

/// Builds one slice per agent, seated as the in-process solvers seat
/// their agents ([`DistributedCsp::seat`]).
///
/// # Errors
///
/// [`NetError::Problem`] on the first agent that does not fit, before
/// any network activity.
pub fn build_slices(
    problem: &DistributedCsp,
    init: &Assignment,
    algo: AlgoSpec,
) -> Result<Vec<AgentSlice>, NetError> {
    let slices = problem.seat(init, |agent, var, domain, init, neighbors| AgentSlice {
        agent,
        var,
        domain,
        init,
        nogoods: problem.nogoods_of(var).cloned().collect(),
        neighbors,
        algo,
    })?;
    Ok(slices)
}

#[cfg(test)]
mod tests {
    use super::*;
    use discsp_core::CoreError;

    fn triangle() -> DistributedCsp {
        let mut b = DistributedCsp::builder();
        let x = b.variable(Domain::new(3));
        let y = b.variable(Domain::new(3));
        let z = b.variable(Domain::new(3));
        b.not_equal(x, y).unwrap();
        b.not_equal(y, z).unwrap();
        b.not_equal(x, z).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn slices_cover_the_problem_and_roundtrip() {
        let problem = triangle();
        let init = Assignment::total([Value::new(0), Value::new(0), Value::new(0)]);
        let slices =
            build_slices(&problem, &init, AlgoSpec::Awc(AwcConfig::resolvent())).expect("builds");
        assert_eq!(slices.len(), 3);
        for (i, slice) in slices.iter().enumerate() {
            assert_eq!(slice.agent, AgentId::new(i as u32));
            assert_eq!(slice.neighbors.len(), 2, "triangle: two neighbors each");
            assert!(!slice.nogoods.is_empty());
            assert_eq!(
                AgentSlice::from_bytes(&slice.to_bytes()).as_ref(),
                Ok(slice)
            );
        }
    }

    #[test]
    fn missing_initial_value_is_rejected() {
        let problem = triangle();
        let init = Assignment::empty(3);
        let err = build_slices(&problem, &init, AlgoSpec::Dba(WeightMode::PerNogood));
        assert!(matches!(
            err,
            Err(NetError::Problem(CoreError::BadInitialValue { .. }))
        ));
    }

    #[test]
    fn out_of_domain_init_fails_to_decode() {
        let problem = triangle();
        let init = Assignment::total([Value::new(1), Value::new(0), Value::new(2)]);
        let slices =
            build_slices(&problem, &init, AlgoSpec::Dba(WeightMode::PerPair)).expect("builds");
        let mut slice = slices.into_iter().next().expect("one slice");
        slice.init = Value::new(9); // outside Domain::new(3)
        assert_eq!(
            AgentSlice::from_bytes(&slice.to_bytes()),
            Err(WireError::Invalid {
                context: "AgentSlice.init"
            })
        );
    }

    #[test]
    fn algo_specs_roundtrip() {
        for algo in [
            AlgoSpec::Awc(AwcConfig::mcs()),
            AlgoSpec::Awc(AwcConfig::kth_resolvent(4)),
            AlgoSpec::Dba(WeightMode::PerPair),
        ] {
            assert_eq!(AlgoSpec::from_bytes(&algo.to_bytes()), Ok(algo));
        }
    }
}
