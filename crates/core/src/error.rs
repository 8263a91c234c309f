//! Error types for the problem model.

use std::error::Error;
use std::fmt;

use crate::ids::{AgentId, VariableId};
use crate::value::Value;

/// Errors arising while building or validating problems and nogoods.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CoreError {
    /// A nogood was constructed with the same variable bound to two
    /// different values.
    ConflictingNogoodElements {
        /// The variable that appeared twice.
        var: VariableId,
    },
    /// A nogood or query referenced a variable the problem does not define.
    UnknownVariable {
        /// The offending variable.
        var: VariableId,
    },
    /// An agent id outside the problem's agent set was referenced.
    UnknownAgent {
        /// The offending agent.
        agent: AgentId,
    },
    /// A nogood prohibits a value outside the variable's domain.
    ValueOutOfDomain {
        /// The variable whose domain was exceeded.
        var: VariableId,
        /// The out-of-range value.
        value: Value,
    },
    /// A problem was finalized with no variables.
    EmptyProblem,
    /// An agent owns a number of variables other than one, where the
    /// algorithm runs one variable per agent (the paper's class, §2.1).
    WrongVariableCount {
        /// The offending agent.
        agent: AgentId,
        /// How many variables it owns.
        count: usize,
    },
    /// A variable has no initial value, or the value is outside its
    /// domain.
    BadInitialValue {
        /// The offending variable.
        var: VariableId,
    },
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::ConflictingNogoodElements { var } => {
                write!(f, "nogood binds variable {var} to two different values")
            }
            CoreError::UnknownVariable { var } => {
                write!(f, "variable {var} is not defined by the problem")
            }
            CoreError::UnknownAgent { agent } => {
                write!(f, "agent {agent} is not part of the problem")
            }
            CoreError::ValueOutOfDomain { var, value } => {
                write!(f, "value {value} is outside the domain of {var}")
            }
            CoreError::EmptyProblem => write!(f, "problem defines no variables"),
            CoreError::WrongVariableCount { agent, count } => write!(
                f,
                "agent {agent} owns {count} variables; the algorithm runs one variable per agent"
            ),
            CoreError::BadInitialValue { var } => {
                write!(f, "variable {var} has no usable initial value")
            }
        }
    }
}

impl Error for CoreError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_are_lowercase_and_informative() {
        let errors: Vec<CoreError> = vec![
            CoreError::ConflictingNogoodElements {
                var: VariableId::new(1),
            },
            CoreError::UnknownVariable {
                var: VariableId::new(2),
            },
            CoreError::UnknownAgent {
                agent: AgentId::new(3),
            },
            CoreError::ValueOutOfDomain {
                var: VariableId::new(4),
                value: Value::new(9),
            },
            CoreError::EmptyProblem,
            CoreError::WrongVariableCount {
                agent: AgentId::new(3),
                count: 0,
            },
            CoreError::BadInitialValue {
                var: VariableId::new(2),
            },
        ];
        for e in errors {
            let msg = e.to_string();
            assert!(!msg.is_empty());
            assert!(msg.chars().next().unwrap().is_lowercase());
            assert!(!msg.ends_with('.'));
        }
    }

    #[test]
    fn seating_errors_name_the_culprit() {
        let e = CoreError::WrongVariableCount {
            agent: AgentId::new(3),
            count: 0,
        };
        assert!(e.to_string().contains("a3 owns 0 variables"));
        let e = CoreError::BadInitialValue {
            var: VariableId::new(2),
        };
        assert!(e.to_string().contains("x2"));
    }

    #[test]
    fn error_is_send_sync_static() {
        fn check<T: std::error::Error + Send + Sync + 'static>() {}
        check::<CoreError>();
    }
}
