// Package analysis is the source-level tier of the tfjs-vet static-analysis
// suite: a small analyzer framework (stdlib go/parser + go/types only, no
// external driver) plus five repo-specific analyzers encoding the paper's
// discipline for a GC-free tensor library:
//
//   - tensorleak: every ops.*/tf.* constructor result must be disposed,
//     kept, returned, or escape on every path (the static counterpart of
//     the runtime LifetimeTracker behind tf.LeakCheck).
//   - syncread: no synchronous tensor readback (DataSync/ReadSync) or
//     Future.Await reachable from a jsenv event-loop callback — the
//     "blocks the UI thread" hazard of Section 3 that the async Data()
//     path exists to avoid.
//   - operr: kernel and op code panics with typed *core.OpError values
//     naming the kernel, and module-internal errors may not be discarded.
//   - poolretain: no backend Raw/ReadSync buffer view escaping into
//     fields, channels, package vars or exported results, nor read after
//     DisposeData — stale views the buffer recycler turns into silent
//     corruption.
//   - lockorder: the engine execution lock is the outermost lock; nothing
//     may acquire it (RunExclusive, or anything that transitively calls
//     it) while holding a sync.Mutex/RWMutex.
//
// The compiled execution plans graph models run have their own
// IR-level verifier (internal/planvet, `tfjs-vet -plan`): dataflow proofs
// over slots, alias roots and dispose points, run at model load.
//
// Findings can be silenced with a justified suppression on the offending
// line (or the line above):
//
//	//lint:ignore <analyzer> <reason>
//
// A suppression without a reason does not suppress — it is itself
// reported, so the codebase can carry zero unexplained suppressions.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// Diagnostic is one finding, positioned at a source location.
type Diagnostic struct {
	// Analyzer names the analyzer that produced the finding.
	Analyzer string
	// Pos locates the finding.
	Pos token.Position
	// Message describes the problem.
	Message string
	// Suppressed marks findings matched by a justified //lint:ignore
	// directive; Reason carries the directive's justification.
	Suppressed bool
	Reason     string
}

// String renders the diagnostic in the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// Pass is one analyzer's view of one package (or, for module-level
// analyzers, of the whole program with Pkg nil).
type Pass struct {
	Analyzer *Analyzer
	Prog     *Program
	Pkg      *Package
	report   func(Diagnostic)
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Prog.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// Analyzer is one check. Per-package analyzers run once per loaded
// package; module-level analyzers run once over the whole Program (used
// when the property spans packages, like the lock order).
type Analyzer struct {
	Name string
	Doc  string
	// Module marks analyzers that need the whole program at once.
	Module bool
	Run    func(*Pass) error
}

// All lists every registered analyzer in reporting order.
var All = []*Analyzer{TensorLeak, SyncRead, OpErr, PoolRetain, LockOrder}

// ByName resolves a comma-separated analyzer list; nil selects All.
func ByName(names string) ([]*Analyzer, error) {
	if names == "" {
		return All, nil
	}
	var out []*Analyzer
	for _, name := range strings.Split(names, ",") {
		name = strings.TrimSpace(name)
		found := false
		for _, a := range All {
			if a.Name == name {
				out = append(out, a)
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("analysis: unknown analyzer %q", name)
		}
	}
	return out, nil
}

// Run executes the analyzers over the program and returns the findings,
// sorted by position, with suppression directives applied.
func Run(prog *Program, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	collect := func(d Diagnostic) { diags = append(diags, d) }
	for _, a := range analyzers {
		if a.Module {
			pass := &Pass{Analyzer: a, Prog: prog, report: collect}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("analysis: %s: %w", a.Name, err)
			}
			continue
		}
		for _, pkg := range prog.Pkgs {
			pass := &Pass{Analyzer: a, Prog: prog, Pkg: pkg, report: collect}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("analysis: %s (%s): %w", a.Name, pkg.Path, err)
			}
		}
	}
	diags = applySuppressions(prog, diags)
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags, nil
}

// suppression is one parsed //lint:ignore directive.
type suppression struct {
	analyzer string
	reason   string
	line     int
}

// suppressionPrefix is the directive marker, in the staticcheck style.
const suppressionPrefix = "lint:ignore"

// collectSuppressions parses the directives of every file in the program,
// keyed by filename. A directive missing its justification is returned as
// a diagnostic instead of a usable suppression.
func collectSuppressions(prog *Program) (map[string][]suppression, []Diagnostic) {
	byFile := map[string][]suppression{}
	var bad []Diagnostic
	for _, pkg := range prog.Pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
					rest, ok := strings.CutPrefix(text, suppressionPrefix)
					if !ok {
						continue
					}
					pos := prog.Fset.Position(c.Pos())
					fields := strings.Fields(rest)
					if len(fields) < 2 {
						bad = append(bad, Diagnostic{
							Analyzer: "suppression",
							Pos:      pos,
							Message: "suppression directive needs an analyzer name and a justification: " +
								"//lint:ignore <analyzer> <reason>",
						})
						continue
					}
					byFile[pos.Filename] = append(byFile[pos.Filename], suppression{
						analyzer: fields[0],
						reason:   strings.Join(fields[1:], " "),
						line:     pos.Line,
					})
				}
			}
		}
	}
	return byFile, bad
}

// applySuppressions marks findings covered by a directive on the same line
// or the line above, and appends diagnostics for malformed directives.
func applySuppressions(prog *Program, diags []Diagnostic) []Diagnostic {
	byFile, bad := collectSuppressions(prog)
	for i := range diags {
		for _, s := range byFile[diags[i].Pos.Filename] {
			if s.analyzer != diags[i].Analyzer {
				continue
			}
			if s.line == diags[i].Pos.Line || s.line == diags[i].Pos.Line-1 {
				diags[i].Suppressed = true
				diags[i].Reason = s.reason
				break
			}
		}
	}
	return append(diags, bad...)
}

// walkStack traverses root calling fn with each node and the stack of its
// ancestors (outermost first, root's own ancestors excluded). Returning
// false prunes the subtree.
func walkStack(root ast.Node, fn func(n ast.Node, stack []ast.Node) bool) {
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if !fn(n, stack) {
			return false
		}
		stack = append(stack, n)
		return true
	})
}

// branchContext returns the branch-introducing ancestors of a node: the
// if/switch-case/select-comm/loop statements whose execution is not
// guaranteed on every path through the enclosing function. Two nodes with
// the same branch context are (approximately) control-equivalent.
func branchContext(stack []ast.Node) []ast.Node {
	var out []ast.Node
	for _, n := range stack {
		switch n.(type) {
		case *ast.IfStmt, *ast.CaseClause, *ast.CommClause, *ast.ForStmt, *ast.RangeStmt:
			out = append(out, n)
		case *ast.FuncLit:
			// A nested closure is its own world: reset the context so uses
			// inside it are judged against branches inside it only.
			out = out[:0]
		}
	}
	return out
}

// contextSubset reports whether every branch ancestor in sub also encloses
// ref — i.e. whether sub is control-flow-guaranteed relative to ref.
func contextSubset(sub, ref []ast.Node) bool {
	for _, n := range sub {
		found := false
		for _, m := range ref {
			if n == m {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}
