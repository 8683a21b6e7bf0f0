//! The paper's augmented-generation capabilities as first-class
//! [`Tool`]s (DESIGN.md §16).
//!
//! Earlier PRs wired the calculator and the mini-wiki lookup as ad-hoc
//! closures at every call site. With the tool API they are two ordinary
//! registrations: [`CalculatorTool`]
//! exports `calculator.run` and [`WikiTool`] exports
//! `wikipedia_utils.search`, byte-identical in behaviour to the legacy
//! closures (pinned by the differential suite in the umbrella crate's
//! `tests/tool_api.rs`).

use crate::calculator;
use crate::wiki::MiniWiki;
use lmql::{Tool, ToolSchema, Value};

/// The paper's §4.1 calculator: evaluates integer arithmetic
/// expressions mid-query. Exports `calculator.run(expr)`.
#[derive(Debug, Clone, Copy, Default)]
pub struct CalculatorTool;

impl Tool for CalculatorTool {
    fn name(&self) -> &str {
        "calculator"
    }

    fn schema(&self) -> ToolSchema {
        ToolSchema::new(
            "calculator",
            "integer arithmetic over +, -, *, /, parentheses (the paper's §4.1 calc())",
        )
        .function(
            "run",
            &["expr"],
            "evaluates `expr` and returns the integer result; tolerates a trailing `=`",
        )
    }

    fn invoke(&self, func: &str, args: &[Value]) -> Result<Value, String> {
        if func != "run" {
            return Err(format!("calculator has no function `{func}`"));
        }
        let expr = args
            .first()
            .and_then(Value::as_str)
            .ok_or("run expects a string")?;
        calculator::run(expr)
            .map(Value::Int)
            .map_err(|e| e.to_string())
    }
}

/// The paper's §4.2 wiki lookup over the offline [`MiniWiki`]. Exports
/// `wikipedia_utils.search(query)`.
#[derive(Debug, Clone, Default)]
pub struct WikiTool {
    wiki: MiniWiki,
}

impl WikiTool {
    /// A tool over `wiki`.
    pub fn new(wiki: MiniWiki) -> Self {
        WikiTool { wiki }
    }

    /// A tool over the standard bundled encyclopedia
    /// ([`MiniWiki::standard`]).
    pub fn standard() -> Self {
        WikiTool::new(MiniWiki::standard())
    }
}

impl Tool for WikiTool {
    fn name(&self) -> &str {
        "wikipedia_utils"
    }

    fn schema(&self) -> ToolSchema {
        ToolSchema::new(
            "wikipedia_utils",
            "keyword search over the bundled mini encyclopedia (the paper's §4.2 ReAct lookup)",
        )
        .function(
            "search",
            &["query"],
            "returns the best-matching article summary, or a not-found message with suggestions",
        )
    }

    fn invoke(&self, func: &str, args: &[Value]) -> Result<Value, String> {
        if func != "search" {
            return Err(format!("wikipedia_utils has no function `{func}`"));
        }
        let query = args
            .first()
            .and_then(Value::as_str)
            .ok_or("search expects a string")?;
        Ok(Value::Str(self.wiki.search(query)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calculator_tool_matches_direct_call() {
        let tool = CalculatorTool;
        let v = tool
            .invoke("run", &[Value::Str("(2 + 3) * 4 =".into())])
            .unwrap();
        assert_eq!(v, Value::Int(calculator::run("(2 + 3) * 4 =").unwrap()));
        assert!(tool.invoke("run", &[Value::Int(3)]).is_err());
        assert!(tool.invoke("nope", &[]).is_err());
    }

    #[test]
    fn wiki_tool_matches_direct_search() {
        let wiki = MiniWiki::standard();
        let tool = WikiTool::standard();
        let v = tool.invoke("search", &[Value::Str("Ada Lovelace".into())]);
        assert_eq!(v, Ok(Value::Str(wiki.search("Ada Lovelace"))));
    }

    #[test]
    fn schemas_describe_the_exports() {
        assert_eq!(CalculatorTool.schema().module, "calculator");
        assert_eq!(CalculatorTool.schema().functions[0].name, "run");
        assert_eq!(WikiTool::standard().schema().module, "wikipedia_utils");
        assert_eq!(WikiTool::standard().schema().functions[0].name, "search");
    }
}
