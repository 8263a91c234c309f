//! Wire encodings for the runtime types that cross the `discsp-net`
//! process boundary: link policies (shipped to document the run in the
//! handshake), per-agent statistics (shipped back at teardown so
//! [`RunMetrics`](discsp_core::RunMetrics) aggregation survives the
//! socket), link fault counters, and message envelopes.

use discsp_core::{AgentId, Wire, WireError, WireReader};

use crate::agent::AgentStats;
use crate::link::{LinkPolicy, LinkStats};
use crate::message::Envelope;

impl Wire for LinkPolicy {
    fn encode(&self, out: &mut Vec<u8>) {
        self.delay_min.encode(out);
        self.delay_max.encode(out);
        self.drop_ppm.encode(out);
        self.dup_ppm.encode(out);
        self.reorder_window.encode(out);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let delay_min = r.u64("LinkPolicy.delay_min")?;
        let delay_max = r.u64("LinkPolicy.delay_max")?;
        let drop_ppm = r.u32("LinkPolicy.drop_ppm")?;
        let dup_ppm = r.u32("LinkPolicy.dup_ppm")?;
        let reorder_window = r.u64("LinkPolicy.reorder_window")?;
        Ok(LinkPolicy {
            delay_min,
            delay_max,
            drop_ppm,
            dup_ppm,
            reorder_window,
        })
    }
}

impl Wire for LinkStats {
    fn encode(&self, out: &mut Vec<u8>) {
        self.sent.encode(out);
        self.dropped.encode(out);
        self.duplicated.encode(out);
        self.reordered.encode(out);
        self.retransmitted.encode(out);
        self.max_delay.encode(out);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let sent = r.u64("LinkStats.sent")?;
        let dropped = r.u64("LinkStats.dropped")?;
        let duplicated = r.u64("LinkStats.duplicated")?;
        let reordered = r.u64("LinkStats.reordered")?;
        let retransmitted = r.u64("LinkStats.retransmitted")?;
        let max_delay = r.u64("LinkStats.max_delay")?;
        Ok(LinkStats {
            sent,
            dropped,
            duplicated,
            reordered,
            retransmitted,
            max_delay,
        })
    }
}

impl Wire for AgentStats {
    fn encode(&self, out: &mut Vec<u8>) {
        self.nogoods_generated.encode(out);
        self.redundant_nogoods.encode(out);
        self.largest_nogood.encode(out);
        self.messages_sent.encode(out);
        self.messages_dropped.encode(out);
        self.messages_duplicated.encode(out);
        self.messages_reordered.encode(out);
        self.messages_retransmitted.encode(out);
        self.max_delivery_delay.encode(out);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let nogoods_generated = r.u64("AgentStats.nogoods_generated")?;
        let redundant_nogoods = r.u64("AgentStats.redundant_nogoods")?;
        let largest_nogood = r.u64("AgentStats.largest_nogood")?;
        let messages_sent = r.u64("AgentStats.messages_sent")?;
        let messages_dropped = r.u64("AgentStats.messages_dropped")?;
        let messages_duplicated = r.u64("AgentStats.messages_duplicated")?;
        let messages_reordered = r.u64("AgentStats.messages_reordered")?;
        let messages_retransmitted = r.u64("AgentStats.messages_retransmitted")?;
        let max_delivery_delay = r.u64("AgentStats.max_delivery_delay")?;
        Ok(AgentStats {
            nogoods_generated,
            redundant_nogoods,
            largest_nogood,
            messages_sent,
            messages_dropped,
            messages_duplicated,
            messages_reordered,
            messages_retransmitted,
            max_delivery_delay,
        })
    }
}

impl<M: Wire> Wire for Envelope<M> {
    fn encode(&self, out: &mut Vec<u8>) {
        self.from.encode(out);
        self.to.encode(out);
        self.payload.encode(out);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let from = AgentId::decode(r)?;
        let to = AgentId::decode(r)?;
        let payload = M::decode(r)?;
        Ok(Envelope { from, to, payload })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use discsp_core::Value;

    #[test]
    fn link_policy_roundtrips() {
        let policy = LinkPolicy::lossy(250_000)
            .with_duplication(50_000)
            .with_delay(1, 4)
            .with_reordering(2);
        assert_eq!(LinkPolicy::from_bytes(&policy.to_bytes()), Ok(policy));
    }

    #[test]
    fn link_stats_roundtrip() {
        let stats = LinkStats {
            sent: 10,
            dropped: 2,
            duplicated: 1,
            reordered: 3,
            retransmitted: 2,
            max_delay: 7,
        };
        assert_eq!(LinkStats::from_bytes(&stats.to_bytes()), Ok(stats));
    }

    #[test]
    fn agent_stats_roundtrip() {
        let stats = AgentStats {
            nogoods_generated: 5,
            largest_nogood: 4,
            max_delivery_delay: 9,
            ..AgentStats::default()
        };
        let bytes = stats.to_bytes();
        assert_eq!(AgentStats::from_bytes(&bytes), Ok(stats));
        assert!(AgentStats::from_bytes(&bytes[..bytes.len() - 1]).is_err());
    }

    #[test]
    fn envelope_roundtrips_with_payload() {
        let env = Envelope::new(AgentId::new(2), AgentId::new(5), Value::new(3));
        let bytes = env.to_bytes();
        let back = Envelope::<Value>::from_bytes(&bytes).expect("decodes");
        assert_eq!(
            (back.from, back.to, back.payload),
            (env.from, env.to, env.payload)
        );
    }
}
