package core

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"reflect"
	"testing"

	"repro/internal/harness"
)

// decodeSpec decodes a spec the way the daemon's POST /jobs does.
func decodeSpec(data []byte) (JobSpec, error) {
	var spec JobSpec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	err := dec.Decode(&spec)
	return spec, err
}

// TestJobSpecFlagsMatchJSON pins the spec's two forms to each other: for
// every flag RegisterFlags registers, `-flag=v` and `{"key": v}` validate
// to equal specs and build equal campaign configurations.
func TestJobSpecFlagsMatchJSON(t *testing.T) {
	cases := map[string]struct{ value, json string }{
		"jdk":        {"openj9-17", `{"targets": ["openj9-17"]}`},
		"seeds":      {"3", `{"seed_count": 3}`},
		"budget":     {"77", `{"budget": 77}`},
		"iterations": {"9", `{"iterations": 9}`},
		"seed":       {"42", `{"seed": 42}`},
		"workers":    {"4", `{"workers": 4}`},
		"extended":   {"true", `{"extended": true}`},
		"heap-limit": {"-1", `{"heap_limit": -1}`},
		"plan-fuzz":  {"full", `{"plan_fuzz": "full"}`},
		"schedule":   {"power", `{"schedule": "power"}`},
		"generators": {"randprog,template", `{"generators": ["randprog", "template"]}`},
		"styles":     {"boxing-loop", `{"styles": ["boxing-loop"]}`},
	}
	var registered JobSpec
	fs := flag.NewFlagSet("spec", flag.ContinueOnError)
	registered.RegisterFlags(fs)
	n := 0
	fs.VisitAll(func(f *flag.Flag) {
		n++
		if _, ok := cases[f.Name]; !ok {
			t.Errorf("flag -%s has no JSON case", f.Name)
		}
	})
	if n != len(cases) {
		t.Errorf("RegisterFlags registered %d flags, want %d", n, len(cases))
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			var fromFlag JobSpec
			fs := flag.NewFlagSet(name, flag.ContinueOnError)
			fromFlag.RegisterFlags(fs)
			if err := fs.Parse([]string{"-" + name + "=" + tc.value}); err != nil {
				t.Fatal(err)
			}
			fromJSON, err := decodeSpec([]byte(tc.json))
			if err != nil {
				t.Fatal(err)
			}
			for _, s := range []*JobSpec{&fromFlag, &fromJSON} {
				if err := s.Validate(); err != nil {
					t.Fatal(err)
				}
			}
			if !reflect.DeepEqual(fromFlag, fromJSON) {
				t.Fatalf("specs differ:\nflag %+v\njson %+v", fromFlag, fromJSON)
			}
			// Campaign sets no func field, so DeepEqual sees them all nil.
			if a, b := fromFlag.Campaign(nil), fromJSON.Campaign(nil); !reflect.DeepEqual(a, b) {
				t.Errorf("campaign configs differ:\nflag %+v\njson %+v", a, b)
			}
		})
	}
}

// TestJobSpecFlagDefaults pins RegisterFlags' default rule: a zero
// field takes Validate's default, a set field keeps its value.
func TestJobSpecFlagDefaults(t *testing.T) {
	spec := JobSpec{SeedCount: 20, Generators: []string{"randprog"}}
	fs := flag.NewFlagSet("spec", flag.ContinueOnError)
	spec.RegisterFlags(fs)
	for name, want := range map[string]string{
		"jdk": "openjdk-17", "seeds": "20", "budget": "1000", "iterations": "50",
		"seed": "1", "workers": "0", "generators": "randprog", "styles": "",
	} {
		if got := fs.Lookup(name).DefValue; got != want {
			t.Errorf("-%s default = %q, want %q", name, got, want)
		}
	}
}

// TestStructuredOBVCampaignMatchesRegex runs one campaign with OBVs
// counted in the JIT (the default) and once with the regex scan over
// profile logs (the reference): guidance reads only OBV values, so both
// must find, spend and score exactly the same.
func TestStructuredOBVCampaignMatchesRegex(t *testing.T) {
	spec := JobSpec{SeedCount: 6, Budget: 200, Targets: []string{"openj9-17"}}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	run := func(structured bool) *CampaignResult {
		cfg := spec.Campaign(nil)
		cfg.Fuzz.StructuredOBV = structured
		res, err := RunCampaignContext(context.Background(), cfg, harness.Config{})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	fast, ref := run(true), run(false)
	if len(ref.Findings) == 0 {
		t.Fatal("the reference campaign found nothing: the comparison would be vacuous")
	}
	if fast.Executions != ref.Executions {
		t.Errorf("executions: structured %d, regex %d", fast.Executions, ref.Executions)
	}
	if a, b := fast.MedianDelta(), ref.MedianDelta(); a != b {
		t.Errorf("median delta: structured %v, regex %v", a, b)
	}
	if !reflect.DeepEqual(fast.Findings, ref.Findings) {
		t.Errorf("findings differ: structured %d, regex %d", len(fast.Findings), len(ref.Findings))
	}
}

// FuzzJobSpec feeds arbitrary bytes through the daemon's decode-then-
// validate path. It must never panic, and a spec that validates must
// survive encode, decode and a second Validate unchanged.
func FuzzJobSpec(f *testing.F) {
	f.Add([]byte(`{"budget": 500}`))
	f.Add([]byte(`{"targets": ["openj9-17", "openjdk-8"], "plan_fuzz": "full", "schedule": "power"}`))
	f.Add([]byte(`{"generators": ["randprog", "style"], "styles": ["boxing-loop"], "seeds": [{"source": "class U { static void main() { print(1); } }"}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		spec, err := decodeSpec(data)
		if err != nil || spec.Validate() != nil {
			return
		}
		enc, err := json.Marshal(&spec)
		if err != nil {
			t.Fatalf("encode a valid spec: %v", err)
		}
		again, err := decodeSpec(enc)
		if err != nil {
			t.Fatalf("decode %s: %v", enc, err)
		}
		if err := again.Validate(); err != nil {
			t.Fatalf("re-validate %s: %v", enc, err)
		}
		if !reflect.DeepEqual(spec, again) {
			t.Fatalf("round trip changed the spec:\n got %+v\nwant %+v", again, spec)
		}
	})
}
