package main

import (
	"fmt"

	"adrdedup"
)

// sameMatches requires got to equal want exactly: same pairs, same
// scores and decisions, same order.
func sameMatches(what string, want, got []adrdedup.Match) error {
	if len(want) != len(got) {
		return fmt.Errorf("%s: %d matches, want %d", what, len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			return fmt.Errorf("%s: match %d is %+v, want %+v", what, i, got[i], want[i])
		}
	}
	return nil
}

// scoredPair is a flagged duplicate as an unordered pair with its score.
type scoredPair struct {
	pair  [2]string
	score float64
}

// sameDuplicates requires the flagged duplicates returned over the wire
// to equal, as a set of unordered pairs with scores, those of the oracle.
func sameDuplicates(what string, oracle []adrdedup.Match, returned []wireMatch) error {
	want := make(map[scoredPair]bool)
	for _, m := range adrdedup.Duplicates(oracle) {
		want[scoredPair{pairKey(m.CaseA, m.CaseB), m.Score}] = true
	}
	got := make(map[scoredPair]bool, len(returned))
	for _, m := range returned {
		k := scoredPair{pairKey(m.CaseA, m.CaseB), m.Score}
		if got[k] {
			return fmt.Errorf("%s: duplicate %v returned twice", what, k)
		}
		got[k] = true
		if !want[k] {
			return fmt.Errorf("%s: returned %v, which the oracle does not flag", what, k)
		}
	}
	if len(got) != len(want) {
		return fmt.Errorf("%s: %d duplicates returned, oracle flags %d", what, len(got), len(want))
	}
	return nil
}

// quality scores flagged duplicates against the injected ground truth.
func quality(flagged []adrdedup.Match, truth map[[2]string]bool) (recall, precision float64) {
	hits := 0
	for _, m := range flagged {
		if truth[pairKey(m.CaseA, m.CaseB)] {
			hits++
		}
	}
	if len(truth) > 0 {
		recall = float64(hits) / float64(len(truth))
	}
	if len(flagged) > 0 {
		precision = float64(hits) / float64(len(flagged))
	}
	return recall, precision
}
