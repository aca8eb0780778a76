package netsim

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// Profile is a named link-emulation preset: a LinkConfig with an
// identity, so harness flags, soak tests, and scenario definitions can
// say "lte" instead of repeating a five-field tuple. Construct by name
// with ProfileByName, or use the package variables directly.
type Profile struct {
	// Name is the flag-friendly identifier ("wifi-good", "lte", ...).
	Name string
	// Link is the path emulation the profile stands for.
	Link LinkConfig
}

// The preset catalog. WiFiCongested and Lossy5 reproduce the exact
// tuples the adaptive-quality and rudp soak tests had been wiring by
// hand, so porting those tests onto profiles changes no behavior.
var (
	// Loopback is a perfect link: no delay, loss, or bandwidth cap.
	Loopback = Profile{Name: "loopback", Link: LinkConfig{}}

	// WiFiGood is an uncongested local WLAN: ~1 ms, ~100 Mbit/s,
	// negligible loss.
	WiFiGood = Profile{Name: "wifi-good", Link: LinkConfig{
		Delay:     time.Millisecond,
		JitterStd: 200 * time.Microsecond,
		Loss:      0.001,
		Bandwidth: 12_500_000,
		MaxQueue:  50 * time.Millisecond,
	}}

	// WiFiCongested is a WLAN whose share of airtime has collapsed:
	// 150 KB/s with a shallow 25 ms buffer, so sustained streams queue
	// and tail-drop. This is the tuple the adaptive-quality ladder is
	// tuned against.
	WiFiCongested = Profile{Name: "wifi-congested", Link: LinkConfig{
		Delay:     time.Millisecond,
		Bandwidth: 150_000,
		MaxQueue:  25 * time.Millisecond,
	}}

	// LTE is a decent cellular path: ~25 ms, ~30 Mbit/s, light loss,
	// deep buffers.
	LTE = Profile{Name: "lte", Link: LinkConfig{
		Delay:     25 * time.Millisecond,
		JitterStd: 4 * time.Millisecond,
		Loss:      0.005,
		Bandwidth: 3_750_000,
		MaxQueue:  100 * time.Millisecond,
	}}

	// Lossy5 is the rudp soak link: 5% independent datagram loss with
	// moderate delay and 1 MB/s — the transport's recovery torture
	// case.
	Lossy5 = Profile{Name: "lossy5", Link: LinkConfig{
		Delay:     15 * time.Millisecond,
		JitterStd: 2 * time.Millisecond,
		Loss:      0.05,
		Bandwidth: 1 << 20,
		MaxQueue:  50 * time.Millisecond,
	}}
)

// profiles indexes the catalog by name.
var profiles = map[string]Profile{
	Loopback.Name:      Loopback,
	WiFiGood.Name:      WiFiGood,
	WiFiCongested.Name: WiFiCongested,
	LTE.Name:           LTE,
	Lossy5.Name:        Lossy5,
}

// ProfileNames returns the catalog's names, sorted, for flag help and
// error messages.
func ProfileNames() []string {
	names := make([]string, 0, len(profiles))
	for n := range profiles {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// ProfileByName returns the named preset (case-insensitive). Unknown
// names error, listing the catalog.
func ProfileByName(name string) (Profile, error) {
	if p, ok := profiles[strings.ToLower(name)]; ok {
		return p, nil
	}
	return Profile{}, fmt.Errorf("netsim: unknown link profile %q (have %s)", name, strings.Join(ProfileNames(), ", "))
}

// NewPair returns a hub and its single port emulating the profile:
// NewPair with the profile's config.
func (p Profile) NewPair(seed uint64) (*Hub, *HubPort) {
	return NewPair(p.Link, seed)
}
