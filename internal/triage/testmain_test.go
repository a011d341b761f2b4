package triage

import (
	"testing"

	"repro/internal/testbin"
)

// minijvmPath is the minijvm binary TestMain builds. Empty means the
// tests that run it skip (-short or a failed build).
var minijvmPath string

func TestMain(m *testing.M) { testbin.Main(m, map[string]*string{"minijvm": &minijvmPath}) }
