package backends

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"ssmobile/internal/device"
	"ssmobile/internal/engine"
	"ssmobile/internal/engine/blocks"
	"ssmobile/internal/engine/pdl"
	"ssmobile/internal/flash"
	"ssmobile/internal/ftl"
	"ssmobile/internal/obs"
	"ssmobile/internal/sim"
)

const testPage = 4096

// testCard is a small card with the spare area every engine's page
// records need.
func testCard(t *testing.T) (*flash.Device, *sim.Clock) {
	t.Helper()
	clock := sim.NewClock()
	dev, err := flash.New(flash.Config{
		Banks: 2, BlocksPerBank: 8, BlockBytes: 4 * testPage, Params: device.IntelFlash,
		SpareUnitBytes: testPage, SpareBytes: blocks.PageRecordBytes,
	}, clock, sim.NewEnergyMeter())
	if err != nil {
		t.Fatal(err)
	}
	return dev, clock
}

// Every engine in the table opens fresh, and a page it wrote comes back,
// bytes and tag, from an engine mounted over the same device.
func TestOpenThenMountReadsBack(t *testing.T) {
	for _, name := range Names {
		t.Run(name, func(t *testing.T) {
			dev, clock := testCard(t)
			cfg := Config{PageBytes: testPage, Obs: obs.New(0)}
			e, err := Open(name, false, dev, clock, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got := built(e); got != name {
				t.Fatalf("Open(%q) built %q", name, got)
			}
			page := bytes.Repeat([]byte{0x5A}, testPage)
			var tag engine.Tag
			copy(tag[:], "object-block-tag")
			if err := e.WritePageTagged(7, page, tag); err != nil {
				t.Fatal(err)
			}

			m, err := Open(name, true, dev, clock, cfg)
			if err != nil {
				t.Fatal(err)
			}
			got := make([]byte, testPage)
			if err := m.ReadPages([]int64{7}, got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, page) {
				t.Fatal("mounted engine reads back different bytes")
			}
			if m.TagOf(7) != tag {
				t.Fatalf("mounted tag %q, want %q", m.TagOf(7), tag)
			}
		})
	}
}

func TestEmptyNameOpensDefault(t *testing.T) {
	dev, clock := testCard(t)
	e, err := Open("", false, dev, clock, Config{PageBytes: testPage, Obs: obs.New(0)})
	if err != nil {
		t.Fatal(err)
	}
	if got := built(e); got != Names[0] {
		t.Fatalf(`Open("") built %q, want %q`, got, Names[0])
	}
}

// built names the engine e's concrete type is.
func built(e engine.Engine) string {
	switch e.(type) {
	case *ftl.FTL:
		return "ftl"
	case *pdl.Engine:
		return "pdl"
	}
	return fmt.Sprintf("%T", e)
}

func TestUnknownNameListsEveryEngine(t *testing.T) {
	dev, clock := testCard(t)
	_, err := Open("ssdfs", false, dev, clock, Config{PageBytes: testPage, Obs: obs.New(0)})
	if err == nil {
		t.Fatal("unknown engine opened")
	}
	for _, name := range Names {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not name %q", err, name)
		}
	}
}
