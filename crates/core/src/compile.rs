//! Lowering from the parsed AST to VM instructions.

use crate::builtins::{check_arity, is_builtin};
use crate::program::{CompiledSegment, Instr, Program, PromptTemplate};
use crate::{Error, Result, Value};
use lmql_syntax::ast::{Expr, Query, Stmt};
use lmql_syntax::{hole_names, parse_expr, parse_prompt, parse_query, Segment, Span};

/// List methods that mutate their receiver in place.
const MUTATING_METHODS: &[&str] = &["append", "extend"];

/// Compiles LMQL source text into a [`Program`].
///
/// # Errors
///
/// Returns syntax errors from parsing and compile errors for static rule
/// violations (unknown functions, misplaced `distribute` variable, …).
pub fn compile_source(source: &str) -> Result<Program> {
    let query = parse_query(source)?;
    compile_query(&query)
}

/// Compiles a parsed query into a [`Program`].
///
/// # Errors
///
/// See [`compile_source`].
pub fn compile_query(query: &Query) -> Result<Program> {
    let mut c = Compiler {
        instrs: Vec::new(),
        holes: Vec::new(),
        loop_stack: Vec::new(),
        imports: query.imports.iter().map(|i| i.name.clone()).collect(),
    };
    c.stmts(&query.body)?;
    c.instrs.push(Instr::Halt);

    // Static checks on the distribute clause: the variable must be a hole
    // of the query (§3 requires it to be the *last* hole; with control
    // flow "last" is dynamic, so the runtime re-checks at execution time).
    if let Some(d) = &query.distribute {
        if !c.holes.iter().any(|h| h == &d.var) {
            return Err(Error::compile(
                format!("distribute variable `{}` is not a hole of the query", d.var),
                d.span,
            ));
        }
    }

    Ok(Program {
        instrs: c.instrs,
        holes: c.holes,
        model: query.model.clone(),
        decoder: query.decoder.clone(),
        where_clause: query.where_clause.clone(),
        distribute: query.distribute.clone(),
        imports: c.imports,
    })
}

struct LoopFrame {
    head: usize,
    /// Indices of `Jump`/`IterNext` placeholders to patch with the exit pc.
    exit_patches: Vec<usize>,
    /// `for` loops hold an iterator on the iterator stack; `while` loops
    /// do not, so `break` must only pop for the former.
    is_for: bool,
}

struct Compiler {
    instrs: Vec<Instr>,
    holes: Vec<String>,
    loop_stack: Vec<LoopFrame>,
    imports: Vec<String>,
}

impl Compiler {
    fn here(&self) -> usize {
        self.instrs.len()
    }

    fn stmts(&mut self, stmts: &[Stmt]) -> Result<()> {
        for s in stmts {
            self.stmt(s)?;
        }
        Ok(())
    }

    fn stmt(&mut self, stmt: &Stmt) -> Result<()> {
        match stmt {
            Stmt::Prompt { raw, span } => {
                let segments = parse_prompt(raw, *span)?
                    .into_iter()
                    .map(|seg| {
                        Ok(match seg {
                            Segment::Literal(t) => CompiledSegment::Literal(lmql_arena::intern(&t)),
                            Segment::Hole(n) => CompiledSegment::Hole(n),
                            Segment::Recall(src) => {
                                // Validated by parse_prompt; parse to AST.
                                CompiledSegment::Recall(parse_expr(&src)?)
                            }
                        })
                    })
                    .collect::<Result<Vec<_>>>()?;
                for name in hole_names(raw) {
                    if !self.holes.contains(&name) {
                        self.holes.push(name);
                    }
                }
                self.instrs.push(Instr::Emit(PromptTemplate {
                    segments,
                    span: *span,
                }));
                Ok(())
            }
            Stmt::Expr(e) => {
                self.expr(e)?;
                self.instrs.push(Instr::Pop);
                Ok(())
            }
            Stmt::Assign { name, value, .. } => {
                self.expr(value)?;
                self.instrs.push(Instr::Store(name.clone()));
                Ok(())
            }
            Stmt::For {
                var,
                iterable,
                body,
                span,
            } => {
                self.expr(iterable)?;
                self.instrs.push(Instr::IterNew(*span));
                let head = self.here();
                // exit patched later
                self.instrs.push(Instr::IterNext {
                    var: var.clone(),
                    exit: usize::MAX,
                });
                self.loop_stack.push(LoopFrame {
                    head,
                    exit_patches: vec![head],
                    is_for: true,
                });
                self.stmts(body)?;
                self.instrs.push(Instr::Jump(head));
                let exit = self.here();
                let frame = self.loop_stack.pop().expect("frame pushed above");
                for idx in frame.exit_patches {
                    match &mut self.instrs[idx] {
                        Instr::IterNext { exit: e, .. } | Instr::Jump(e) => *e = exit,
                        other => unreachable!("bad exit patch target {other:?}"),
                    }
                }
                Ok(())
            }
            Stmt::While { cond, body, .. } => {
                let head = self.here();
                self.expr(cond)?;
                let jf = self.here();
                self.instrs.push(Instr::JumpIfFalse(usize::MAX));
                self.loop_stack.push(LoopFrame {
                    head,
                    exit_patches: vec![],
                    is_for: false,
                });
                self.stmts(body)?;
                self.instrs.push(Instr::Jump(head));
                let exit = self.here();
                self.patch_jump(jf, exit);
                let frame = self.loop_stack.pop().expect("frame pushed above");
                for idx in frame.exit_patches {
                    match &mut self.instrs[idx] {
                        Instr::Jump(e) => *e = exit,
                        other => unreachable!("bad exit patch target {other:?}"),
                    }
                }
                Ok(())
            }
            Stmt::If {
                cond,
                then_body,
                else_body,
                ..
            } => {
                self.expr(cond)?;
                let jf = self.here();
                self.instrs.push(Instr::JumpIfFalse(usize::MAX));
                self.stmts(then_body)?;
                if else_body.is_empty() {
                    let end = self.here();
                    self.patch_jump(jf, end);
                } else {
                    let jend = self.here();
                    self.instrs.push(Instr::Jump(usize::MAX));
                    let else_start = self.here();
                    self.patch_jump(jf, else_start);
                    self.stmts(else_body)?;
                    let end = self.here();
                    self.patch_jump(jend, end);
                }
                Ok(())
            }
            Stmt::Break(span) => {
                let Some(frame) = self.loop_stack.last() else {
                    return Err(Error::compile("`break` outside of a loop", *span));
                };
                if frame.is_for {
                    // Unwind the loop's iterator; `while` has none.
                    self.instrs.push(Instr::PopIter);
                }
                let j = self.here();
                self.instrs.push(Instr::Jump(usize::MAX));
                self.loop_stack
                    .last_mut()
                    .expect("checked non-empty")
                    .exit_patches
                    .push(j);
                Ok(())
            }
            Stmt::Continue(span) => {
                let head = self
                    .loop_stack
                    .last()
                    .ok_or_else(|| Error::compile("`continue` outside of a loop", *span))?
                    .head;
                self.instrs.push(Instr::Jump(head));
                Ok(())
            }
            Stmt::Pass(_) => Ok(()),
        }
    }

    fn patch_jump(&mut self, idx: usize, target: usize) {
        match &mut self.instrs[idx] {
            Instr::Jump(t) | Instr::JumpIfFalse(t) => *t = target,
            other => unreachable!("bad jump patch target {other:?}"),
        }
    }

    fn expr(&mut self, e: &Expr) -> Result<()> {
        match e {
            Expr::Str { value, .. } => {
                self.instrs.push(Instr::Const(Value::Str(value.clone())));
            }
            Expr::Int { value, .. } => {
                self.instrs.push(Instr::Const(Value::Int(*value)));
            }
            Expr::Float { value, .. } => {
                self.instrs.push(Instr::Const(Value::Float(*value)));
            }
            Expr::Bool { value, .. } => {
                self.instrs.push(Instr::Const(Value::Bool(*value)));
            }
            Expr::None { .. } => {
                self.instrs.push(Instr::Const(Value::None));
            }
            Expr::Name { name, span } => {
                self.instrs.push(Instr::Load(name.clone(), *span));
            }
            Expr::List { items, .. } => {
                for item in items {
                    self.expr(item)?;
                }
                self.instrs.push(Instr::MakeList(items.len()));
            }
            Expr::Call { func, args, span } => self.call(func, args, *span)?,
            Expr::Attribute { span, .. } => {
                return Err(Error::compile(
                    "attribute access is only supported as a call target",
                    *span,
                ));
            }
            Expr::Index { obj, index, span } => {
                self.expr(obj)?;
                self.expr(index)?;
                self.instrs.push(Instr::Index(*span));
            }
            Expr::Slice { obj, lo, hi, span } => {
                self.expr(obj)?;
                if let Some(lo) = lo {
                    self.expr(lo)?;
                }
                if let Some(hi) = hi {
                    self.expr(hi)?;
                }
                self.instrs.push(Instr::Slice {
                    has_lo: lo.is_some(),
                    has_hi: hi.is_some(),
                    span: *span,
                });
            }
            Expr::BinOp {
                op,
                left,
                right,
                span,
            } => {
                self.expr(left)?;
                self.expr(right)?;
                self.instrs.push(Instr::BinOp(*op, *span));
            }
            Expr::Compare {
                op,
                left,
                right,
                span,
            } => {
                self.expr(left)?;
                self.expr(right)?;
                self.instrs.push(Instr::Compare(*op, *span));
            }
            Expr::BoolOp { and, operands, .. } => {
                for o in operands {
                    self.expr(o)?;
                }
                self.instrs.push(Instr::BoolFold {
                    and: *and,
                    count: operands.len(),
                });
            }
            Expr::Not { operand, .. } => {
                self.expr(operand)?;
                self.instrs.push(Instr::Not);
            }
            Expr::Neg { operand, span } => {
                self.expr(operand)?;
                self.instrs.push(Instr::Neg(*span));
            }
        }
        Ok(())
    }

    fn call(&mut self, func: &Expr, args: &[Expr], span: Span) -> Result<()> {
        match func {
            Expr::Name { name, .. } => {
                // `subquery(source[, var])` is a runtime capability, not
                // a value builtin: it launches a child query through the
                // engine (DESIGN.md §14), so it compiles to an external
                // call the runtime pre-registers under `__runtime`.
                if name == "subquery" {
                    if args.is_empty() || args.len() > 2 {
                        return Err(Error::compile(
                            "subquery(source[, variable]) takes 1 or 2 arguments",
                            span,
                        ));
                    }
                    for a in args {
                        self.expr(a)?;
                    }
                    self.instrs.push(Instr::CallExternal {
                        module: "__runtime".to_owned(),
                        func: "subquery".to_owned(),
                        argc: args.len(),
                        span,
                    });
                    return Ok(());
                }
                if !is_builtin(name) {
                    return Err(Error::compile(
                        format!(
                            "unknown function `{name}` (user-defined functions are not \
                             allowed in query bodies; register externals via a module)"
                        ),
                        span,
                    ));
                }
                check_arity(name, args.len(), span)?;
                for a in args {
                    self.expr(a)?;
                }
                self.instrs.push(Instr::CallBuiltin {
                    name: name.clone(),
                    argc: args.len(),
                    span,
                });
                Ok(())
            }
            Expr::Attribute { obj, name, .. } => {
                // module.func(...) for imported modules
                if let Expr::Name { name: base, .. } = obj.as_ref() {
                    if self.imports.contains(base) {
                        for a in args {
                            self.expr(a)?;
                        }
                        self.instrs.push(Instr::CallExternal {
                            module: base.clone(),
                            func: name.clone(),
                            argc: args.len(),
                            span,
                        });
                        return Ok(());
                    }
                    if MUTATING_METHODS.contains(&name.as_str()) {
                        for a in args {
                            self.expr(a)?;
                        }
                        self.instrs.push(Instr::CallMutMethod {
                            var: base.clone(),
                            name: name.clone(),
                            argc: args.len(),
                            span,
                        });
                        return Ok(());
                    }
                }
                if MUTATING_METHODS.contains(&name.as_str()) {
                    return Err(Error::compile(
                        format!("`.{name}()` requires a plain variable receiver"),
                        span,
                    ));
                }
                self.expr(obj)?;
                for a in args {
                    self.expr(a)?;
                }
                self.instrs.push(Instr::CallMethod {
                    name: name.clone(),
                    argc: args.len(),
                    span,
                });
                Ok(())
            }
            other => Err(Error::compile(
                "call target must be a function or method name",
                other.span(),
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compiles_fig1b() {
        let p = compile_source(
            r#"
argmax
    "A list of things not to forget when travelling:\n"
    things = []
    for i in range(2):
        "- [THING]\n"
        things.append(THING)
    "The most important of these is [ITEM]."
from "gpt-j-6B"
where len(words(THING)) <= 2
distribute ITEM in things
"#,
        )
        .unwrap();
        assert_eq!(p.holes, vec!["THING", "ITEM"]);
        assert!(matches!(p.instrs.last(), Some(Instr::Halt)));
        assert!(p
            .instrs
            .iter()
            .any(|i| matches!(i, Instr::CallMutMethod { name, .. } if name == "append")));
    }

    #[test]
    fn distribute_var_must_be_hole() {
        let err =
            compile_source("argmax\n    \"[X]\"\nfrom \"m\"\ndistribute Y in [1]\n").unwrap_err();
        assert!(matches!(err, Error::Compile { .. }));
    }

    #[test]
    fn unknown_function_rejected() {
        let err = compile_source("argmax\n    foo(1)\nfrom \"m\"\n").unwrap_err();
        assert!(err.to_string().contains("unknown function"));
    }

    #[test]
    fn break_outside_loop_rejected() {
        let err = compile_source("argmax\n    break\nfrom \"m\"\n").unwrap_err();
        assert!(err.to_string().contains("break"));
    }

    #[test]
    fn external_calls_need_import() {
        // without the import, wiki.search is a method call on an unknown
        // variable — it compiles to CallMethod and fails at runtime, but
        // with the import it compiles to CallExternal.
        let p = compile_source("import wiki\nargmax\n    x = wiki.search(\"q\")\nfrom \"m\"\n")
            .unwrap();
        assert!(p
            .instrs
            .iter()
            .any(|i| matches!(i, Instr::CallExternal { module, .. } if module == "wiki")));
    }

    #[test]
    fn loop_jumps_patched() {
        let p = compile_source(
            "argmax\n    for i in range(3):\n        if i == 1: break\nfrom \"m\"\n",
        )
        .unwrap();
        for instr in &p.instrs {
            match instr {
                Instr::Jump(t) | Instr::JumpIfFalse(t) | Instr::IterNext { exit: t, .. } => {
                    assert!(*t <= p.instrs.len(), "unpatched jump {t}");
                }
                _ => {}
            }
        }
    }
}
