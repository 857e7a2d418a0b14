package core

import (
	"reflect"
	"slices"
	"testing"

	"dtsvliw/internal/metrics"
)

// configVariant is a named copy of a configuration with one field changed.
type configVariant struct {
	name string
	cfg  Config
}

// fieldVariants returns one copy of base per leaf field of Config, found
// by reflection and walking nested structs, with that field changed:
// numbers count up, booleans flip, strings grow, pointers get a fresh
// object and FUs gets one more class. A non-empty FUs also gets a copy
// with its first class changed. A field of any other kind fails the test,
// so a new kind of Config field cannot slip past the pool's comparison
// untested.
func fieldVariants(t *testing.T, base Config) []configVariant {
	t.Helper()
	var out []configVariant
	var walk func(name string, index []int)
	walk = func(name string, index []int) {
		c := base
		c.FUs = slices.Clone(base.FUs)
		v := reflect.ValueOf(&c).Elem()
		if len(index) > 0 {
			v = v.FieldByIndex(index)
		}
		switch v.Kind() {
		case reflect.Struct:
			for i := range v.NumField() {
				walk(name+"."+v.Type().Field(i).Name, append(slices.Clip(index), i))
			}
			return
		case reflect.Bool:
			v.SetBool(!v.Bool())
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			v.SetInt(v.Int() + 1)
		case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
			v.SetUint(v.Uint() + 1)
		case reflect.String:
			v.SetString(v.String() + "x")
		case reflect.Pointer:
			v.Set(reflect.New(v.Type().Elem()))
		case reflect.Slice:
			v.Set(reflect.Append(v, reflect.Zero(v.Type().Elem())))
		default:
			t.Fatalf("%s: no perturbation for a %v field", name, v.Kind())
		}
		out = append(out, configVariant{name, c})
	}
	walk("Config", nil)
	if len(base.FUs) > 0 {
		c := base
		c.FUs = slices.Clone(base.FUs)
		c.FUs[0]++
		out = append(out, configVariant{"Config.FUs[0]", c})
	}
	return out
}

// TestMachinePoolSharesOnlyEqualConfigs: a shelved context serves a Get
// only for an equal configuration (every field by value, FUs element by
// element, Telemetry and Metrics by identity), and a warm Get+Put
// allocates nothing.
func TestMachinePoolSharesOnlyEqualConfigs(t *testing.T) {
	reg := metrics.NewRegistry()
	for _, base := range []struct {
		name string
		cfg  func() Config
	}{
		{"ideal", func() Config { c := IdealConfig(8, 8); c.Metrics = reg; return c }},
		{"feasible", func() Config { c := FeasibleConfig(); c.Metrics = reg; return c }},
	} {
		t.Run(base.name, func(t *testing.T) {
			pool := NewMachinePool()
			ctx, err := pool.Get(base.cfg())
			if err != nil {
				t.Fatal(err)
			}
			if _, err := ctx.Prepare(); err != nil {
				t.Fatal(err)
			}
			pool.Put(ctx)

			variants := fieldVariants(t, base.cfg())
			if n := reflect.TypeOf(Config{}).NumField(); len(variants) < n {
				t.Fatalf("%d variants for %d Config fields", len(variants), n)
			}
			other := base.cfg()
			other.Metrics = metrics.NewRegistry()
			variants = append(variants, configVariant{"another Metrics registry", other})
			for _, v := range variants {
				hits := pool.Hits
				// A miss builds a fresh context, or fails validation for
				// a variant no machine can run; either way it is unshelved.
				pool.Get(v.cfg)
				if pool.Hits != hits {
					t.Errorf("%s changed, but Get reused the shelved context", v.name)
				}
			}

			// An equal configuration built separately (a fresh FUs array)
			// hits.
			got, err := pool.Get(base.cfg())
			if err != nil {
				t.Fatal(err)
			}
			if got != ctx {
				t.Fatal("an equal configuration missed the shelved context")
			}
			pool.Put(got)

			cfg := base.cfg()
			allocs := testing.AllocsPerRun(50, func() {
				c, err := pool.Get(cfg)
				if err != nil {
					panic(err)
				}
				pool.Put(c)
			})
			if allocs != 0 {
				t.Errorf("warm Get+Put allocates %.1f times", allocs)
			}
		})
	}
}
