package verify_test

import (
	"fmt"

	"futurebus/internal/core"
	"futurebus/internal/verify"
)

// ExampleExplore proves the two-board class exhaustively consistent.
func ExampleExplore() {
	res, err := verify.Explore([]verify.Chooser{
		verify.ClassChooser{Variant: core.CopyBack},
		verify.ClassChooser{Variant: core.CopyBack},
	})
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println(res.Ok(), res.States)
	// Output:
	// true 18
}
