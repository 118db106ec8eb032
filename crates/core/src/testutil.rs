//! Fakes shared by the `campaign` and `dispatch` unit tests.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use gremlin_proxy::{AgentControl, ProxyError, Rule};
use gremlin_store::EventStore;

use crate::graph::AppGraph;
use crate::recipe::TestContext;

/// In-memory agent recording installed rules. Its fault-clear can be
/// given a budget, after which it fails like a dead control channel.
pub(crate) struct FakeAgent {
    service: String,
    pub(crate) rules: Mutex<Vec<Rule>>,
    clears_left: AtomicUsize,
}

impl FakeAgent {
    pub(crate) fn new(service: &str) -> Arc<FakeAgent> {
        FakeAgent::failing_clears_after(service, usize::MAX)
    }

    /// An agent whose first `budget` clears succeed and every later
    /// one fails.
    pub(crate) fn failing_clears_after(service: &str, budget: usize) -> Arc<FakeAgent> {
        Arc::new(FakeAgent {
            service: service.to_string(),
            rules: Mutex::new(Vec::new()),
            clears_left: AtomicUsize::new(budget),
        })
    }
}

impl AgentControl for FakeAgent {
    fn service_name(&self) -> String {
        self.service.clone()
    }

    fn install_rules(&self, rules: &[Rule]) -> Result<(), ProxyError> {
        self.rules.lock().extend(rules.iter().cloned());
        Ok(())
    }

    fn clear_rules(&self) -> Result<(), ProxyError> {
        self.clears_left
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |left| {
                left.checked_sub(1)
            })
            .map_err(|_| ProxyError::InvalidRule("control channel down".into()))?;
        self.rules.lock().clear();
        Ok(())
    }

    fn list_rules(&self) -> Result<Vec<Rule>, ProxyError> {
        Ok(self.rules.lock().clone())
    }
}

/// A context over `agents`, one per client service of `pairs`.
pub(crate) fn ctx_over(pairs: &[(&str, &str)], agents: &[Arc<FakeAgent>]) -> TestContext {
    TestContext::new(
        AppGraph::from_edges(pairs.to_vec()),
        agents
            .iter()
            .map(|agent| Arc::clone(agent) as Arc<dyn AgentControl>)
            .collect(),
        EventStore::shared(),
    )
}

/// A fan of independent `client -> server` edges, each client fronted
/// by a [`FakeAgent`].
pub(crate) fn fan_ctx(pairs: &[(&str, &str)]) -> (TestContext, Vec<Arc<FakeAgent>>) {
    let agents: Vec<Arc<FakeAgent>> = pairs.iter().map(|(src, _)| FakeAgent::new(src)).collect();
    (ctx_over(pairs, &agents), agents)
}
