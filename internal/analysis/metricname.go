package analysis

import (
	"go/ast"
	"go/types"
	"regexp"
	"strconv"
	"strings"
)

// metricNameRE is the project metric-naming scheme: a tqec_, tqecc_, or
// tqecd_ prefix (library, compiler CLI, daemon) — or go_ for the
// runtime self-telemetry families every /metrics surface re-exports —
// followed by lowercase snake case.
var metricNameRE = regexp.MustCompile(`^(?:tqec[cd]?|go)_[a-z0-9_]+$`)

// obsRegistryPath is the package whose Registry methods register metric
// families.
const obsRegistryPath = "tqec/internal/obs"

// registryMethods are the registering methods and their kind-specific
// suffix rules.
var registryMethods = map[string]struct{ counter, gauge, duration bool }{
	"Counter":       {counter: true},
	"CounterFunc":   {counter: true},
	"Gauge":         {gauge: true},
	"GaugeFunc":     {gauge: true},
	"Histogram":     {duration: true},
	"HistogramVec":  {duration: true},
	"HistogramFunc": {duration: true},
}

// MetricName builds the metricname analyzer: every metric family
// registered with the internal/obs registry must be a string literal
// matching ^(tqec[cd]?|go)_[a-z0-9_]+$, counters must end in _total
// (Prometheus convention) and gauges must not, and duration histograms
// must carry an explicit unit suffix (_seconds or _ms). Misnamed
// families poison dashboards silently — the exposition format has no
// schema, and a _total gauge is a count a scraper will not treat as one.
func MetricName() *Analyzer {
	a := &Analyzer{
		Name: "metricname",
		Doc:  "obs registry metric names must be literals matching ^(tqec[cd]?|go)_[a-z0-9_]+$ with _total counters (and only counters) and _seconds/_ms histograms",
	}
	a.Run = func(pass *Pass) {
		info := pass.Pkg.Info
		for _, file := range pass.Pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok || len(call.Args) == 0 {
					return true
				}
				fn := funcFor(info, call)
				if fn == nil || !isRegistryMethod(fn) {
					return true
				}
				rule, ok := registryMethods[fn.Name()]
				if !ok {
					return true
				}
				lit, ok := ast.Unparen(call.Args[0]).(*ast.BasicLit)
				if !ok || lit.Kind.String() != "STRING" {
					pass.Reportf(call.Args[0].Pos(),
						"metric name passed to Registry.%s must be a string literal so the family set is auditable", fn.Name())
					return true
				}
				name, err := strconv.Unquote(lit.Value)
				if err != nil {
					return true
				}
				switch {
				case !metricNameRE.MatchString(name):
					pass.Reportf(lit.Pos(), "metric %q does not match ^(tqec[cd]?|go)_[a-z0-9_]+$", name)
				case rule.counter && !strings.HasSuffix(name, "_total"):
					pass.Reportf(lit.Pos(), "counter %q must end in _total (Prometheus convention)", name)
				case rule.gauge && strings.HasSuffix(name, "_total"):
					pass.Reportf(lit.Pos(), "gauge %q ends in _total: register a count as a Counter or CounterFunc", name)
				case rule.duration && !strings.HasSuffix(name, "_seconds") && !strings.HasSuffix(name, "_ms"):
					pass.Reportf(lit.Pos(), "duration histogram %q must end in _seconds or _ms so the unit is explicit", name)
				}
				return true
			})
		}
	}
	return a
}

// isRegistryMethod reports whether fn is a method on
// tqec/internal/obs.Registry (pointer or value receiver).
func isRegistryMethod(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	t := sig.Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Registry" && obj.Pkg() != nil && obj.Pkg().Path() == obsRegistryPath
}
