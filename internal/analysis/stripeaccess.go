package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// StripeAccess is rule A7: hashed shard state may only be resolved
// through its accessors.  Two layers hash a key to a slot, and both
// break the same way when the resolution is duplicated by hand:
//
//   - The sharded stores: Store and MVStore hash each object to a
//     stripe (fnv-1a over the object name).  Any code that indexes the
//     `stripes` slice by hand duplicates the hash, and a mismatch
//     silently splits one object's state across two stripes — two
//     mutexes, two cell maps, lost updates.  Resolution is
//     concentrated in `stripe` (whole-store scans in `forEachStripe`).
//
//   - The cluster's ordering domains: Cluster carves the keyspace into
//     shards, each with its own sequencer, seqrep client, per-site
//     queues, WALs, intent journals, and replica ensembles, all stored
//     in shard-indexed slices.  Indexing a shard slot by hand routes
//     an ET into another domain's total order — duplicate sequence
//     numbers in one domain, permanent gaps in another, divergent
//     stores.  Resolution is concentrated in the shard.go accessors
//     (shardSeq, linkFor, inQueueFor, walFor, ...).
//
// Both checks are structural and flag every function outside the
// accessor/constructor allowlists.  Test files are exempt (white-box
// shard tests are how the sharding itself is verified).
var StripeAccess = &Analyzer{
	Rule: "A7",
	Name: "stripeaccess",
	Doc:  "stripe arrays and per-shard ordering state may only be resolved through their accessors",
	Run:  runStripeAccess,
}

// stripedStoreTypes are the named types whose stripes field is private
// to the accessors.
var stripedStoreTypes = map[string]bool{"Store": true, "MVStore": true}

// stripeAccessors are the only functions allowed to touch the field:
// the constructors that build the stripe array and the accessors every
// other method resolves through.
var stripeAccessors = map[string]bool{
	"stripe": true, "forEachStripe": true, "NewStore": true, "NewMVStore": true,
}

// clusterShardFields maps each per-shard field of core.Cluster to the
// index depth at which a shard slot is resolved.  seqs and seqClients
// are shard-indexed directly (depth 1); inQ, wals, intents, and
// seqReps are keyed by site first and shard second (depth 2), so
// plain site lookups like `c.wals[id]` stay legal; out is keyed
// (from, to, shard) (depth 3).  Indexing at exactly that depth outside
// the accessors is a finding — shallower prefixes hand off whole
// per-site slices without picking a domain and are fine.
var clusterShardFields = map[string]int{
	"seqs":       1,
	"seqClients": 1,
	"inQ":        2,
	"wals":       2,
	"intents":    2,
	"seqReps":    2,
	"out":        3,
}

// shardAccessors are the only functions allowed to resolve a shard
// slot by hand: the constructors that build the per-shard arrays and
// the shard.go accessors everything else routes through.
var shardAccessors = map[string]bool{
	"shardSeq": true, "seqClientFor": true, "linkFor": true,
	"inQueueFor": true, "walFor": true, "intentFor": true,
	"seqRepFor": true, "forEachShard": true, "forEachLink": true,
	"forEachShardLink": true, "forEachInQ": true, "forEachWAL": true,
	"New": true, "Setup": true, "hostSequencerReplicas": true,
}

// indexChain unwinds a (possibly nested) index expression down to the
// selector it indexes, returning the selector and the number of index
// levels applied to it.  `c.out[a][b][s]` yields (c.out, 3).
func indexChain(ix *ast.IndexExpr) (*ast.SelectorExpr, int) {
	depth := 0
	var n ast.Expr = ix
	for {
		inner, ok := n.(*ast.IndexExpr)
		if !ok {
			break
		}
		depth++
		n = inner.X
	}
	sel, _ := n.(*ast.SelectorExpr)
	return sel, depth
}

func runStripeAccess(p *Package) []Diagnostic {
	var diags []Diagnostic
	for _, f := range p.Files {
		if strings.HasSuffix(p.Fset.Position(f.Pos()).Filename, "_test.go") {
			continue
		}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.SelectorExpr:
					if stripeAccessors[fd.Name.Name] || n.Sel.Name != "stripes" {
						return true
					}
					tv, ok := p.Info.Types[n.X]
					if !ok {
						return true
					}
					name := namedTypeName(tv.Type)
					if !stripedStoreTypes[name] {
						return true
					}
					diags = append(diags, p.diag("A7", n,
						"%s indexes %s.stripes directly (resolve the stripe through the stripe/forEachStripe accessors so the hash-to-stripe mapping stays single-sourced)",
						fd.Name.Name, name))
				case *ast.IndexExpr:
					if shardAccessors[fd.Name.Name] {
						return true
					}
					sel, depth := indexChain(n)
					if sel == nil {
						return true
					}
					need, shardField := clusterShardFields[sel.Sel.Name]
					if !shardField || depth != need {
						return true
					}
					tv, ok := p.Info.Types[sel.X]
					if !ok || namedTypeName(tv.Type) != "Cluster" {
						return true
					}
					diags = append(diags, p.diag("A7", n,
						"%s resolves a shard slot of Cluster.%s by hand (route through the shard.go accessors so the key-to-domain mapping stays single-sourced)",
						fd.Name.Name, sel.Sel.Name))
				}
				return true
			})
		}
	}
	return diags
}

// namedTypeName returns the bare name of the (possibly pointered) named
// type, or "".
func namedTypeName(t types.Type) string {
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return ""
}
