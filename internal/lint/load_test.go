package lint

import (
	"strings"
	"testing"
)

// TestLoadPackagesTypeChecks proves the export-data loader resolves a
// real module package with module-internal and std dependencies.
func TestLoadPackagesTypeChecks(t *testing.T) {
	pkgs, err := LoadPackages("../..", "./internal/uarch")
	if err != nil {
		t.Fatalf("LoadPackages: %v", err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("loaded %d packages, want 1", len(pkgs))
	}
	pkg := pkgs[0]
	if !strings.HasSuffix(pkg.PkgPath, "internal/uarch") {
		t.Fatalf("loaded %q, want .../internal/uarch", pkg.PkgPath)
	}
	if pkg.Types.Scope().Lookup("System") == nil {
		t.Fatalf("uarch scope is missing System; type info incomplete")
	}
	if len(pkg.Info.Uses) == 0 {
		t.Fatal("no uses recorded; types.Info not populated")
	}
}

// TestByName rejects unknown analyzers and resolves subsets.
func TestByName(t *testing.T) {
	all, err := ByName("")
	if err != nil || len(all) != 3 {
		t.Fatalf("ByName(\"\") = %d analyzers, err %v; want 3, nil", len(all), err)
	}
	subset, err := ByName("allocfree,lockdiscipline")
	if err != nil || len(subset) != 2 {
		t.Fatalf("subset = %v, err %v; want 2 analyzers", subset, err)
	}
	if _, err := ByName("nosuch"); err == nil {
		t.Fatal("ByName(nosuch) succeeded, want error")
	}
}
