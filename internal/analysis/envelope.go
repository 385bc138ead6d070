package analysis

import (
	"go/ast"
	"go/constant"
)

// DefaultEnvelopePackages are the HTTP tiers whose error responses must
// carry the structured /v2 envelope (code/message/request_id) rather
// than a bare status line. None of them owns a writer: the envelope
// lives in internal/api, which is deliberately not listed.
var DefaultEnvelopePackages = []string{
	"internal/serve",
	"internal/gateway",
	"internal/tenant",
}

// Envelope flags http.Error calls and WriteHeader with a constant
// 4xx/5xx status in the serving packages: every client-visible error
// must flow through the structured envelope writer (api.WriteError) so
// callers always get code/message/request_id JSON. WriteHeader with a computed status
// (the envelope writer itself, proxied upstream statuses) is exempt —
// the analyzer targets the hand-rolled shortcut, not the plumbing.
func Envelope(pkgs ...string) *Analyzer {
	if pkgs == nil {
		pkgs = DefaultEnvelopePackages
	}
	return &Analyzer{
		Name: "envelope",
		Doc:  "forbids http.Error and constant 4xx/5xx WriteHeader in serving packages; use the /v2 envelope writer",
		Run: func(pass *Pass) {
			if !inPackages(pass, pkgs) {
				return
			}
			for _, f := range pass.Pkg.Files {
				file := f
				ast.Inspect(f, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					sel, ok := call.Fun.(*ast.SelectorExpr)
					if !ok {
						return true
					}
					if pass.usesPkgFunc(file, sel, "net/http", "Error") {
						pass.Reportf(call.Pos(), "http.Error writes a plain-text error; respond through the structured /v2 envelope writer")
						return true
					}
					if sel.Sel.Name == "WriteHeader" && len(call.Args) == 1 {
						if code, ok := pass.constInt(call.Args[0]); ok && code >= 400 && code <= 599 {
							pass.Reportf(call.Pos(), "raw WriteHeader(%d) bypasses the /v2 error envelope; use the structured envelope writer", code)
						}
					}
					return true
				})
			}
		},
	}
}

// constInt evaluates e as a compile-time integer constant.
func (p *Pass) constInt(e ast.Expr) (int64, bool) {
	if p.Pkg.Info == nil {
		return 0, false
	}
	tv, ok := p.Pkg.Info.Types[e]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.Int {
		return 0, false
	}
	return constant.Int64Val(tv.Value)
}
