package planvet

import (
	"fmt"
	"sort"
	"strings"
	"text/tabwriter"
)

// Lifetime is one alias-group root's compiled lifetime: when its
// container comes into existence, when it is last read, and how it
// leaves the execution (freed at a dispose point, kept as an output, or
// resident for the whole run as a weight/feed).
type Lifetime struct {
	// Root is the owning slot of the alias group.
	Root int
	// Node names the owning slot.
	Node string
	// Class is "weight", "feed", "output" or "inter" (intermediate).
	Class string
	// Def is the defining step (-1: seeded before step 0).
	Def int
	// LastUse is the last reading step (-1: never read; len(Steps) for
	// outputs, which are read out after the last step).
	LastUse int
	// DisposedAt is the dispose point freeing the container (-1: never
	// freed mid-execution).
	DisposedAt int
	// Aliases lists the other slots sharing this container.
	Aliases []int
}

// Lifetimes computes the per-root lifetime table of a plan, sorted by
// definition step (pre-seeded roots first, then program order).
func Lifetimes(p *Plan) []Lifetime {
	v := &verifier{p: p}
	v.resolveRoots()
	v.computeLifetimes()
	byRoot := map[int]*Lifetime{}
	for s := range p.Slots {
		r := v.resolved[s]
		if r < 0 {
			continue
		}
		lt, ok := byRoot[r]
		if !ok {
			class := "inter"
			switch {
			case p.Slots[r].Weight:
				class = "weight"
			case p.Slots[r].Feed:
				class = "feed"
			case v.outRoot[r]:
				class = "output"
			}
			def := v.rootDef[r]
			if def == -2 {
				def = -1
			}
			lt = &Lifetime{
				Root:       r,
				Node:       p.Slots[r].Name,
				Class:      class,
				Def:        def,
				LastUse:    v.rootLastUse[r],
				DisposedAt: v.rootDisposed[r],
			}
			byRoot[r] = lt
		}
		if s != r {
			lt.Aliases = append(lt.Aliases, s)
		}
	}
	out := make([]Lifetime, 0, len(byRoot))
	for _, lt := range byRoot {
		sort.Ints(lt.Aliases)
		out = append(out, *lt)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Def != out[j].Def {
			return out[i].Def < out[j].Def
		}
		return out[i].Root < out[j].Root
	})
	return out
}

// FormatTable renders the lifetime table as aligned text — the output of
// `tfjs-vet -plan`. One row per physical
// container: its class, when it is defined, last read and freed, and the
// alias slots riding on it.
func FormatTable(p *Plan) string {
	lts := Lifetimes(p)
	var b strings.Builder
	fmt.Fprintf(&b, "plan %s: %d steps, %d slots, %d containers\n",
		p.Model, len(p.Steps), len(p.Slots), len(lts))
	w := tabwriter.NewWriter(&b, 2, 0, 2, ' ', 0)
	fmt.Fprintln(w, "ROOT\tNODE\tCLASS\tDEF\tLAST USE\tFREED\tALIASES")
	inter, freed := 0, 0
	for _, lt := range lts {
		aliases := "-"
		if len(lt.Aliases) > 0 {
			parts := make([]string, len(lt.Aliases))
			for i, s := range lt.Aliases {
				parts[i] = fmt.Sprintf("%s(s%d)", p.Slots[s].Name, s)
			}
			aliases = strings.Join(parts, " ")
		}
		last := stepLabel(lt.LastUse)
		if lt.LastUse == len(p.Steps) {
			last = "end"
		}
		fmt.Fprintf(w, "%d\t%s\t%s\t%s\t%s\t%s\t%s\n",
			lt.Root, lt.Node, lt.Class, stepLabel(lt.Def), last, stepLabel(lt.DisposedAt), aliases)
		if lt.Class == "inter" {
			inter++
			if lt.DisposedAt >= 0 {
				freed++
			}
		}
	}
	w.Flush()
	fmt.Fprintf(&b, "%d intermediate container(s), %d freed at their last use\n", inter, freed)
	return b.String()
}
