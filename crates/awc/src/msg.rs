//! The AWC message protocol.

use std::fmt;

use discsp_core::{AgentId, Nogood, Priority, Value, VariableId, Wire, WireError, WireReader};
use discsp_runtime::{Classify, MessageClass};
use serde::{Deserialize, Serialize};

use crate::agent::AwcConfig;
use crate::learning::Learning;

/// Messages exchanged by AWC agents (§2.2).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum AwcMessage {
    /// `ok?` — announces the sender's current value and priority for its
    /// variable.
    Ok {
        /// The announced variable.
        var: VariableId,
        /// Its current value.
        value: Value,
        /// Its current priority.
        priority: Priority,
    },
    /// `nogood` — carries a learned nogood to an agent whose variable
    /// appears in it. `owners` maps each variable in the nogood to its
    /// owning agent so the recipient can request values of variables it
    /// has never heard of.
    Nogood {
        /// The learned nogood.
        nogood: Nogood,
        /// Owner of each variable in the nogood.
        owners: Vec<(VariableId, AgentId)>,
    },
    /// Asks the recipient to announce its variable's value to the sender
    /// (and keep announcing it from now on). Sent when a received nogood
    /// mentions an unknown variable (§2.2).
    RequestValue,
}

impl Classify for AwcMessage {
    fn class(&self) -> MessageClass {
        match self {
            AwcMessage::Ok { .. } => MessageClass::Ok,
            AwcMessage::Nogood { .. } => MessageClass::Nogood,
            AwcMessage::RequestValue => MessageClass::Other,
        }
    }
}

impl fmt::Display for AwcMessage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AwcMessage::Ok {
                var,
                value,
                priority,
            } => write!(f, "ok?({var}={value}@{priority})"),
            AwcMessage::Nogood { nogood, .. } => write!(f, "nogood({nogood})"),
            AwcMessage::RequestValue => write!(f, "request-value"),
        }
    }
}

impl Wire for AwcMessage {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            AwcMessage::Ok {
                var,
                value,
                priority,
            } => {
                out.push(0);
                var.encode(out);
                value.encode(out);
                priority.encode(out);
            }
            AwcMessage::Nogood { nogood, owners } => {
                out.push(1);
                nogood.encode(out);
                owners.encode(out);
            }
            AwcMessage::RequestValue => out.push(2),
        }
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        match r.u8("AwcMessage")? {
            0 => {
                let var = VariableId::decode(r)?;
                let value = Value::decode(r)?;
                let priority = Priority::decode(r)?;
                Ok(AwcMessage::Ok {
                    var,
                    value,
                    priority,
                })
            }
            1 => {
                let nogood = Nogood::decode(r)?;
                let owners = Vec::<(VariableId, AgentId)>::decode(r)?;
                Ok(AwcMessage::Nogood { nogood, owners })
            }
            2 => Ok(AwcMessage::RequestValue),
            tag => Err(WireError::BadTag {
                context: "AwcMessage",
                tag,
            }),
        }
    }
}

impl Wire for Learning {
    fn encode(&self, out: &mut Vec<u8>) {
        let tag: u8 = match self {
            Learning::Resolvent => 0,
            Learning::Mcs => 1,
            Learning::None => 2,
        };
        out.push(tag);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        match r.u8("Learning")? {
            0 => Ok(Learning::Resolvent),
            1 => Ok(Learning::Mcs),
            2 => Ok(Learning::None),
            tag => Err(WireError::BadTag {
                context: "Learning",
                tag,
            }),
        }
    }
}

impl Wire for AwcConfig {
    fn encode(&self, out: &mut Vec<u8>) {
        self.learning.encode(out);
        self.record_bound.map(|b| b as u64).encode(out);
        self.record_received.encode(out);
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let learning = Learning::decode(r)?;
        let record_bound = match Option::<u64>::decode(r)? {
            None => None,
            Some(bound) => Some(usize::try_from(bound).map_err(|_| WireError::Invalid {
                context: "AwcConfig.record_bound",
            })?),
        };
        let record_received = bool::decode(r)?;
        Ok(AwcConfig {
            learning,
            record_bound,
            record_received,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification() {
        let ok = AwcMessage::Ok {
            var: VariableId::new(0),
            value: Value::new(1),
            priority: Priority::ZERO,
        };
        assert_eq!(ok.class(), MessageClass::Ok);
        let ng = AwcMessage::Nogood {
            nogood: Nogood::empty(),
            owners: vec![],
        };
        assert_eq!(ng.class(), MessageClass::Nogood);
        assert_eq!(AwcMessage::RequestValue.class(), MessageClass::Other);
    }

    #[test]
    fn display_forms() {
        let ok = AwcMessage::Ok {
            var: VariableId::new(2),
            value: Value::new(1),
            priority: Priority::new(3),
        };
        assert_eq!(ok.to_string(), "ok?(x2=1@3)");
        assert_eq!(AwcMessage::RequestValue.to_string(), "request-value");
    }

    #[test]
    fn messages_roundtrip_on_the_wire() {
        let samples = [
            AwcMessage::Ok {
                var: VariableId::new(7),
                value: Value::new(2),
                priority: Priority::new(11),
            },
            AwcMessage::Nogood {
                nogood: Nogood::of([
                    (VariableId::new(0), Value::new(1)),
                    (VariableId::new(3), Value::new(0)),
                ]),
                owners: vec![
                    (VariableId::new(0), AgentId::new(0)),
                    (VariableId::new(3), AgentId::new(3)),
                ],
            },
            AwcMessage::RequestValue,
        ];
        for msg in samples {
            assert_eq!(AwcMessage::from_bytes(&msg.to_bytes()).as_ref(), Ok(&msg));
        }
        assert!(matches!(
            AwcMessage::from_bytes(&[9]),
            Err(WireError::BadTag { .. })
        ));
    }

    #[test]
    fn configs_roundtrip_on_the_wire() {
        for config in [
            AwcConfig::resolvent(),
            AwcConfig::mcs(),
            AwcConfig::no_learning(),
            AwcConfig::kth_resolvent(3),
            AwcConfig::resolvent_norec(),
        ] {
            assert_eq!(AwcConfig::from_bytes(&config.to_bytes()), Ok(config));
        }
    }
}
