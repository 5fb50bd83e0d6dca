package telemetry

import (
	"encoding/json"
	"net"
	"net/http"
	"reflect"
	"testing"
)

// TestServeReportsListenErrors: an occupied address must surface as an
// error from Serve itself, not a phantom endpoint that silently serves
// nothing (the pre-fix behaviour discarded ListenAndServe's error in a
// goroutine).
func TestServeReportsListenErrors(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	if _, err := Serve(ln.Addr().String(), NewRegistry()); err == nil {
		t.Fatal("Serve on an occupied address returned no error")
	}
	if _, err := Serve("127.0.0.1:-1", NewRegistry()); err == nil {
		t.Fatal("Serve on an invalid address returned no error")
	}
}

// TestServeServesSnapshots: a successful Serve is live by the time it
// returns (the listen is synchronous), and /metrics yields a JSON
// snapshot with the registry's counters.
func TestServeServesSnapshots(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("soak.test").Add(7)

	srv, err := Serve("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	resp, err := http.Get("http://" + srv.Addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if got := snap.Counter("soak.test"); got != 7 {
		t.Fatalf("served snapshot soak.test = %d; want 7", got)
	}
}

// TestEncodedTypesHoldNoEnumSlices: core.Event and core.Variant are one
// byte wide, and encoding/json writes any slice of a uint8-kinded type as
// a base64 string. No type handed to an encoder — the /metrics and
// timeline snapshots, the Chrome trace — holds such a slice today, nor
// does Flight, the type likeliest to gain a JSON form; a []core.Event
// added to one must come with its own MarshalJSON.
func TestEncodedTypesHoldNoEnumSlices(t *testing.T) {
	seen := map[reflect.Type]bool{}
	var walk func(path string, ty reflect.Type)
	walk = func(path string, ty reflect.Type) {
		if seen[ty] {
			return
		}
		seen[ty] = true
		switch ty.Kind() {
		case reflect.Slice, reflect.Array:
			if el := ty.Elem(); el.Kind() == reflect.Uint8 && el != reflect.TypeOf(byte(0)) {
				t.Errorf("%s is a %v: encoding/json would write it as base64", path, ty)
			}
			walk(path+"[]", ty.Elem())
		case reflect.Ptr:
			walk(path, ty.Elem())
		case reflect.Map:
			walk(path+"[]", ty.Elem())
		case reflect.Struct:
			for i := 0; i < ty.NumField(); i++ {
				walk(path+"."+ty.Field(i).Name, ty.Field(i).Type)
			}
		}
	}
	for _, root := range []any{Snapshot{}, Epoch{}, chromeTrace{}, Flight{}} {
		walk(reflect.TypeOf(root).Name(), reflect.TypeOf(root))
	}
}
