//! Fixture trace schema: three variants, the JSONL decoder out of sync.

pub enum TraceEvent {
    AgentStep { cycle: u64, checks: u64 },
    NogoodLearned { cycle: u64, size: u64 },
    RunEnd { cycle: u64 },
}
