//! Shared by the engine's integration suites.

use lmql::QueryResult;
use lmql_engine::Router;

/// Runs every source through `router` at once, one scoped thread each
/// (the concurrent callers a server's connections would be); results
/// come back in input order.
pub fn run_concurrently(router: &Router, sources: &[&str]) -> Vec<lmql::Result<QueryResult>> {
    std::thread::scope(|s| {
        let handles: Vec<_> = sources
            .iter()
            .map(|&source| s.spawn(move || router.run_query(source)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("query thread panicked"))
            .collect()
    })
}
