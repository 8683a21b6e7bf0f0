//! First-class tools (DESIGN.md §16).
//!
//! The paper's augmented-generation queries (§4: calculator arithmetic,
//! wiki-lookup ReAct) call *external functions* — pure, deterministic
//! host code invoked mid-query as `module.func(args)`. Earlier PRs wired
//! each one as an ad-hoc closure registered on the runtime, so every new
//! capability was a runtime special case. This module redesigns that
//! surface: a [`Tool`] is a named, schema-described, deterministic
//! capability, and a [`ToolRegistry`] is the unit that travels — through
//! [`QueryRequest`](crate::QueryRequest), `EngineConfig`, the server,
//! and down into subqueries, which inherit the parent's registry.
//!
//! Design points:
//!
//! - **Tools lower onto the existing VM hook.** Installing a registry
//!   registers one [`Externals`] entry per exported function, so the
//!   interpreter's `CallExternal` path — and every layer built on it
//!   (FOLLOW evaluation, subquery inheritance, scripted beam forking) —
//!   is unchanged. A tool *is* the externals hook, plus identity,
//!   schema, and accounting.
//! - **Determinism is part of the contract.** [`Tool::invoke`] must be a
//!   pure function of its arguments (the paper's §4 assumption); the
//!   decoders replay and fork executions, so an impure tool would
//!   desynchronise beams.
//! - **Usage accounting is built in.** Every call through a registry
//!   bumps a per-tool counter shared by all clones of that registry —
//!   engine replicas and subquery children report into the same cells,
//!   so [`ToolRegistry::usage`] is a tree-wide rollup, and runtimes with
//!   a metrics registry export `tool.calls.<name>` counters.

use crate::interp::Externals;
use crate::Value;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// One callable function a tool exports, for documentation and
/// discovery; the VM calls it as `module.name(args…)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ToolFunction {
    /// Function name within the tool's module namespace.
    pub name: String,
    /// Documented parameter names, in call order.
    pub params: Vec<String>,
    /// One-line description of what the function does.
    pub description: String,
}

/// The machine-readable surface of a [`Tool`]: the module name queries
/// import, a description, and the exported functions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ToolSchema {
    /// Module namespace: queries call `module.func(...)` after
    /// `import module`.
    pub module: String,
    /// One-line description of the capability.
    pub description: String,
    /// The functions this tool exports.
    pub functions: Vec<ToolFunction>,
}

impl ToolSchema {
    /// A schema for module `module` with no functions yet.
    pub fn new(module: impl Into<String>, description: impl Into<String>) -> Self {
        ToolSchema {
            module: module.into(),
            description: description.into(),
            functions: Vec::new(),
        }
    }

    /// Adds an exported function.
    pub fn function(
        mut self,
        name: impl Into<String>,
        params: &[&str],
        description: impl Into<String>,
    ) -> Self {
        self.functions.push(ToolFunction {
            name: name.into(),
            params: params.iter().map(|p| (*p).to_owned()).collect(),
            description: description.into(),
        });
        self
    }
}

/// A first-class tool: a named, schema-described, *deterministic*
/// capability callable from query bodies as `module.func(args…)`.
///
/// Implementations must be pure functions of their arguments — the
/// decoders clone and replay executions (scripted beam search forks the
/// VM at every step), so an invocation observed twice must return the
/// same value twice. Stateful or randomised tools belong behind a
/// deterministic façade (seeded, snapshot-read, or memoised).
pub trait Tool: Send + Sync {
    /// Unique registration key — normally the module name. Two tools
    /// with the same name cannot coexist in one registry (the later
    /// registration wins).
    fn name(&self) -> &str;

    /// The tool's schema: module namespace, description, exported
    /// functions.
    fn schema(&self) -> ToolSchema;

    /// Invokes exported function `func` with `args`. Must be
    /// deterministic; errors surface as
    /// [`Error::External`](crate::Error::External) in the query.
    fn invoke(&self, func: &str, args: &[Value]) -> std::result::Result<Value, String>;
}

/// A single-function [`Tool`] built from a closure — a convenient way to
/// lift any pure `fn(&[Value])` into the tool API without a dedicated
/// type: `rt.register_tool(Arc::new(FnTool::new(module, func, closure)))`.
pub struct FnTool {
    name: String,
    schema: ToolSchema,
    func: String,
    f: crate::interp::ExternalFn,
}

impl FnTool {
    /// A tool exporting the single function `module.func`, backed by
    /// `f`. Its registration [`name`](Tool::name) is `"module.func"`, so
    /// several `FnTool`s can share a module namespace in one registry.
    pub fn new<F>(module: &str, func: &str, f: F) -> Self
    where
        F: Fn(&[Value]) -> std::result::Result<Value, String> + Send + Sync + 'static,
    {
        FnTool {
            name: format!("{module}.{func}"),
            schema: ToolSchema::new(module, format!("closure-backed external `{module}.{func}`"))
                .function(func, &[], "registered via FnTool"),
            func: func.to_owned(),
            f: Arc::new(f),
        }
    }
}

impl std::fmt::Debug for FnTool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FnTool").field("name", &self.name).finish()
    }
}

impl Tool for FnTool {
    fn name(&self) -> &str {
        &self.name
    }

    fn schema(&self) -> ToolSchema {
        self.schema.clone()
    }

    fn invoke(&self, func: &str, args: &[Value]) -> std::result::Result<Value, String> {
        if func != self.func {
            return Err(format!("FnTool `{}` has no function `{func}`", self.name));
        }
        (self.f)(args)
    }
}

/// One registered tool plus its shared call counter. Cloning shares the
/// counter, so replicas and subquery children bill the same cell.
#[derive(Clone)]
struct ToolEntry {
    tool: Arc<dyn Tool>,
    calls: Arc<AtomicU64>,
}

/// A set of [`Tool`]s keyed by [`Tool::name`], with per-tool call
/// accounting. This is the unit threaded through the stack: a runtime
/// holds one, `QueryRequest` can carry per-request additions,
/// `EngineConfig`/`ServerConfig` seed every worker runtime with one, and
/// subqueries inherit the parent's.
///
/// Cloning a registry shares the call counters (they are the accounting
/// identity of a registration), so [`usage`](ToolRegistry::usage) on the
/// original sees calls made through any clone.
#[derive(Clone, Default)]
pub struct ToolRegistry {
    entries: BTreeMap<String, ToolEntry>,
}

impl std::fmt::Debug for ToolRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let names: Vec<&str> = self.entries.keys().map(String::as_str).collect();
        f.debug_struct("ToolRegistry")
            .field("tools", &names)
            .finish()
    }
}

impl ToolRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers `tool` under its [`name`](Tool::name), replacing any
    /// existing registration of that name (the replacement starts a
    /// fresh call counter).
    pub fn register(&mut self, tool: Arc<dyn Tool>) {
        self.entries.insert(
            tool.name().to_owned(),
            ToolEntry {
                tool,
                calls: Arc::new(AtomicU64::new(0)),
            },
        );
    }

    /// Builder-style [`register`](ToolRegistry::register).
    #[must_use]
    pub fn with(mut self, tool: Arc<dyn Tool>) -> Self {
        self.register(tool);
        self
    }

    /// Merges every registration from `other` into `self` (shared call
    /// counters and all); `other`'s entries win on name collision.
    pub fn merge(&mut self, other: &ToolRegistry) {
        for (name, entry) in &other.entries {
            self.entries.insert(name.clone(), entry.clone());
        }
    }

    /// The tool registered as `name`, if any.
    pub fn get(&self, name: &str) -> Option<&Arc<dyn Tool>> {
        self.entries.get(name).map(|e| &e.tool)
    }

    /// Registered tool names, sorted.
    pub fn names(&self) -> Vec<&str> {
        self.entries.keys().map(String::as_str).collect()
    }

    /// The schemas of every registered tool, in name order — the
    /// discovery surface (servers can describe their tool set, prompts
    /// can render it).
    pub fn schemas(&self) -> Vec<ToolSchema> {
        self.entries.values().map(|e| e.tool.schema()).collect()
    }

    /// Whether no tools are registered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Number of registered tools.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Per-tool invocation counts `(name, calls)`, in name order.
    /// Counts are shared across clones: calls made by engine replicas or
    /// subquery children seeded from this registry are visible here.
    pub fn usage(&self) -> Vec<(String, u64)> {
        self.entries
            .iter()
            .map(|(name, e)| (name.clone(), e.calls.load(Ordering::Relaxed)))
            .collect()
    }

    /// Lowers the registry onto the VM's external-function hook:
    /// registers one [`Externals`] entry per exported function, each
    /// wrapped with this registry's call accounting. Later installs of
    /// the same `module.func` overwrite earlier ones, mirroring
    /// [`Externals::register`].
    pub fn install(&self, externals: &mut Externals) {
        for entry in self.entries.values() {
            let schema = entry.tool.schema();
            for f in &schema.functions {
                let tool = Arc::clone(&entry.tool);
                let calls = Arc::clone(&entry.calls);
                let func = f.name.clone();
                externals.register(&schema.module, &f.name, move |args| {
                    calls.fetch_add(1, Ordering::Relaxed);
                    tool.invoke(&func, args)
                });
            }
        }
    }

    /// Reports per-tool call counts as `tool.calls.<name>` counters into
    /// `registry`. Counters are monotone cells: this sets each to the
    /// current rollup by adding the delta since the last report.
    pub fn report_metrics(&self, registry: &lmql_obs::Registry) {
        for (name, calls) in self.usage() {
            let counter = registry.counter(&format!("tool.calls.{name}"));
            let seen = counter.get();
            if calls > seen {
                counter.add(calls - seen);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Echo;

    impl Tool for Echo {
        fn name(&self) -> &str {
            "echo"
        }

        fn schema(&self) -> ToolSchema {
            ToolSchema::new("echo", "echoes its argument")
                .function("say", &["text"], "returns its first argument")
                .function("shout", &["text"], "returns its first argument uppercased")
        }

        fn invoke(&self, func: &str, args: &[Value]) -> std::result::Result<Value, String> {
            let text = args
                .first()
                .and_then(Value::as_str)
                .ok_or("echo takes a string")?;
            match func {
                "say" => Ok(Value::Str(text.to_owned())),
                "shout" => Ok(Value::Str(text.to_uppercase())),
                other => Err(format!("echo has no function `{other}`")),
            }
        }
    }

    #[test]
    fn install_exposes_every_schema_function() {
        let registry = ToolRegistry::new().with(Arc::new(Echo));
        let mut externals = Externals::new();
        registry.install(&mut externals);
        let said = externals
            .call_public("echo", "say", &[Value::Str("hi".into())])
            .unwrap();
        assert_eq!(said, Value::Str("hi".into()));
        let shouted = externals
            .call_public("echo", "shout", &[Value::Str("hi".into())])
            .unwrap();
        assert_eq!(shouted, Value::Str("HI".into()));
    }

    #[test]
    fn usage_counts_calls_and_is_shared_across_clones() {
        let registry = ToolRegistry::new().with(Arc::new(Echo));
        let clone = registry.clone();
        let mut externals = Externals::new();
        clone.install(&mut externals);
        for _ in 0..3 {
            externals
                .call_public("echo", "say", &[Value::Str("x".into())])
                .unwrap();
        }
        assert_eq!(registry.usage(), vec![("echo".to_owned(), 3)]);
        assert_eq!(clone.usage(), vec![("echo".to_owned(), 3)]);
    }

    #[test]
    fn fn_tool_adapts_closures() {
        let tool = FnTool::new("m", "double", |args| {
            let n = args.first().and_then(Value::as_int).ok_or("want int")?;
            Ok(Value::Int(n * 2))
        });
        assert_eq!(tool.name(), "m.double");
        assert_eq!(tool.invoke("double", &[Value::Int(4)]), Ok(Value::Int(8)));
        assert!(tool.invoke("triple", &[]).is_err());

        let registry = ToolRegistry::new().with(Arc::new(tool));
        let mut externals = Externals::new();
        registry.install(&mut externals);
        let v = externals
            .call_public("m", "double", &[Value::Int(21)])
            .unwrap();
        assert_eq!(v, Value::Int(42));
    }

    #[test]
    fn register_replaces_by_name_and_merge_prefers_other() {
        let mut registry = ToolRegistry::new();
        registry.register(Arc::new(FnTool::new("m", "f", |_| Ok(Value::Int(1)))));
        let mut other = ToolRegistry::new();
        other.register(Arc::new(FnTool::new("m", "f", |_| Ok(Value::Int(2)))));
        registry.merge(&other);
        assert_eq!(registry.len(), 1);
        let mut externals = Externals::new();
        registry.install(&mut externals);
        assert_eq!(externals.call_public("m", "f", &[]).unwrap(), Value::Int(2));
    }

    #[test]
    fn report_metrics_exports_counters() {
        let registry = ToolRegistry::new().with(Arc::new(Echo));
        let mut externals = Externals::new();
        registry.install(&mut externals);
        externals
            .call_public("echo", "say", &[Value::Str("x".into())])
            .unwrap();
        let metrics = lmql_obs::Registry::new();
        registry.report_metrics(&metrics);
        assert_eq!(metrics.counter("tool.calls.echo").get(), 1);
        // Re-reporting without new calls does not double count.
        registry.report_metrics(&metrics);
        assert_eq!(metrics.counter("tool.calls.echo").get(), 1);
    }
}
