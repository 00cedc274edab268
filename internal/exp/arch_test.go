package exp

import (
	"testing"

	"github.com/tcdnet/tcd/internal/units"
)

func TestAblationSwitchArchShape(t *testing.T) {
	res := AblationSwitchArch(Run{Horizon: 6 * units.Millisecond, Seed: 1})
	t.Log(res.Render())
	for _, label := range []string{"output-queued", "voq"} {
		if res.Scalars[label+"_p2_ce_during_bursts"] != 0 {
			t.Errorf("%s: CE marked during bursts", label)
		}
		if res.Scalars[label+"_f0_ue"] == 0 {
			t.Errorf("%s: victim never UE-marked", label)
		}
		if res.Scalars[label+"_p2_und_us"] < 100 {
			t.Errorf("%s: no undetermined era", label)
		}
	}
}
