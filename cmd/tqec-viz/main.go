// Command tqec-viz renders ASCII cross-sections of TQEC geometric
// descriptions: the canonical form of a circuit and, optionally, the
// compressed result.
//
// Usage:
//
//	tqec-viz -sample threecnot            # canonical geometry
//	tqec-viz -sample threecnot -compressed
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	"tqec/internal/canonical"
	"tqec/internal/circuit"
	"tqec/internal/compress"
	"tqec/internal/decompose"
	"tqec/internal/geom"
	"tqec/internal/icm"
	"tqec/internal/service"
)

func main() {
	var (
		sample     = flag.String("sample", "threecnot", "embedded sample name")
		inReal     = flag.String("in", "", "RevLib .real circuit file")
		compressed = flag.Bool("compressed", false, "show the compressed geometry instead of canonical")
		seed       = flag.Int64("seed", 1, "seed for the compression pipeline")
		objOut     = flag.String("obj", "", "also export the geometry as a Wavefront OBJ mesh")
		jsonOut    = flag.String("json", "", "also export the geometry as JSON")
	)
	flag.Parse()

	// The -sample default stands in only when -in names no circuit.
	sampleSet := false
	flag.Visit(func(f *flag.Flag) { sampleSet = sampleSet || f.Name == "sample" })
	if *inReal != "" && !sampleSet {
		*sample = ""
	}
	src, err := service.LocalSource(*inReal, "", *sample, "", 0)
	fail(err)
	c, err := src.Load()
	fail(err)

	var desc *geom.Description
	if *compressed {
		res, err := compress.CompileContext(context.Background(), c, compress.Options{
			Mode: compress.Full, Seed: *seed, Effort: compress.EffortNormal, KeepGeometry: true,
		})
		fail(err)
		fmt.Printf("compressed %s: volume %d (canonical %d)\n\n", c.Name, res.Volume, res.CanonicalVolume)
		desc = res.Geometry
	} else {
		rep, err := icm.FromCliffordT(mustCliffordT(c))
		fail(err)
		desc, err = canonical.Describe(rep)
		fail(err)
		fmt.Printf("canonical %s: volume %d\n\n", c.Name, desc.Volume())
	}
	fmt.Print(desc.DumpLayers())
	if *objOut != "" {
		fail(writeFile(*objOut, desc.WriteOBJ))
		fmt.Fprintf(os.Stderr, "wrote %s\n", *objOut)
	}
	if *jsonOut != "" {
		fail(writeFile(*jsonOut, desc.WriteJSON))
		fmt.Fprintf(os.Stderr, "wrote %s\n", *jsonOut)
	}
}

// writeFile streams an exporter into a freshly created file.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// mustCliffordT lowers reversible inputs to Clifford+T when necessary.
func mustCliffordT(c *circuit.Circuit) *circuit.Circuit {
	if _, err := icm.FromCliffordT(c); err == nil {
		return c
	}
	res, err := decompose.ToCliffordT(c)
	fail(err)
	return res.Circuit
}

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "tqec-viz:", err)
		os.Exit(1)
	}
}
