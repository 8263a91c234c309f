//! Toy agents shared by the runtime's unit tests.

use discsp_core::{AgentId, DistributedCsp, Domain, Nogood, Value, VarValue, VariableId};

use crate::agent::{AgentStats, DistributedAgent, Outbox};
use crate::message::{Classify, Envelope, MessageClass};

/// Max-gossip on a ring: each agent starts `false` except agent 0, takes
/// the largest value it hears, and passes changes on to the next agent,
/// so everyone must end up holding `true`.
#[derive(Debug, Clone)]
pub struct Gossip(pub Value);

impl Classify for Gossip {
    fn class(&self) -> MessageClass {
        MessageClass::Ok
    }
}

pub struct RingAgent {
    pub id: AgentId,
    pub n: usize,
    pub value: Value,
}

impl RingAgent {
    fn next(&self) -> AgentId {
        AgentId::new(((self.id.index() + 1) % self.n) as u32)
    }
}

impl DistributedAgent for RingAgent {
    type Message = Gossip;

    fn id(&self) -> AgentId {
        self.id
    }

    fn on_start(&mut self, out: &mut Outbox<Gossip>) {
        out.send(self.next(), Gossip(self.value));
    }

    fn on_batch(&mut self, inbox: Vec<Envelope<Gossip>>, out: &mut Outbox<Gossip>) {
        let mut changed = false;
        for env in inbox {
            if env.payload.0 > self.value {
                self.value = env.payload.0;
                changed = true;
            }
        }
        if changed {
            out.send(self.next(), Gossip(self.value));
        }
    }

    fn on_nudge(&mut self, out: &mut Outbox<Gossip>) {
        out.send(self.next(), Gossip(self.value));
    }

    fn assignments(&self) -> Vec<VarValue> {
        vec![VarValue::new(VariableId::new(self.id.raw()), self.value)]
    }

    fn take_checks(&mut self) -> u64 {
        0
    }

    fn stats(&self) -> AgentStats {
        AgentStats::default()
    }
}

/// `n` boolean variables, each forbidden to be `false`.
pub fn all_true_problem(n: usize) -> DistributedCsp {
    let mut b = DistributedCsp::builder();
    let vars: Vec<_> = (0..n).map(|_| b.variable(Domain::BOOL)).collect();
    for &v in &vars {
        b.nogood(Nogood::of([(v, Value::FALSE)])).unwrap();
    }
    b.build().unwrap()
}

/// A gossip ring of `n` agents with only agent 0 holding `true`.
pub fn ring(n: usize) -> Vec<RingAgent> {
    (0..n)
        .map(|i| RingAgent {
            id: AgentId::new(i as u32),
            n,
            value: Value::from_bool(i == 0),
        })
        .collect()
}
