// Recursive-descent parser for the Datalog dialect.
//
// Full grammar (tokens per lexer.h; `*` = repetition, `?` = optional):
//
//   program    := item*
//   item       := reldecl | keydecl | rule
//   reldecl    := ("input" | "output")? "relation" IDENT "(" cols? ")"
//   keydecl    := "key" atom   (column names of an input declared before it)
//   cols       := col ("," col)*
//   col        := IDENT ":" type
//   type       := "bool" | "bigint" | "string" | "bit" "<" INT ">"
//               | "(" type ("," type)* ")" | "Vec" "<" type ">"
//   rule       := atom (":-" body)? "."
//   body       := elem ("," elem)*
//   elem       := "not" atom
//               | "var" IDENT "=" aggtail
//               | atom            (when lookahead is IDENT "(")
//               | expr            (condition)
//   aggtail    := AGGNAME "(" expr ")" "group_by" "(" IDENT ("," IDENT)* ")"
//               | expr
//   atom       := IDENT "(" expr ("," expr)* ")"
//   expr       := or-expr, C-like precedence; "if c then a else b";
//                 tuples "(a, b)"; calls IDENT "(" args ")"; wildcard "_"
#ifndef NERPA_DLOG_PARSER_H_
#define NERPA_DLOG_PARSER_H_

#include <string_view>

#include "common/status.h"
#include "dlog/ast.h"

namespace nerpa::dlog {

/// Parses a program.  Performs syntax checks, plus that a key names columns
/// of an input declared before it that has no other key; rule name
/// resolution and type checking happen in Compile() (program.h).
Result<ProgramAst> ParseProgram(std::string_view source);

/// Parses a single expression (for tests and REPL-style tools).
Result<ExprPtr> ParseExpr(std::string_view source);

}  // namespace nerpa::dlog

#endif  // NERPA_DLOG_PARSER_H_
