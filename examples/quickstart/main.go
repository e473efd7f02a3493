// Quickstart reproduces the paper's Figures 2 and 3: a small IDL program
// describing the factorization opportunity (x*y)+(x*z), applied to a three-
// line C function. The solver finds the unique solution {sum, left_addend,
// right_addend, factor}.
package main

import (
	"context"
	"fmt"
	"log"

	"repro/idiomatic"
)

// The C input of the paper's Figure 3.
const source = `
int example(int a, int b, int c) {
    int d = a;
    return (a*b) + (c*d);
}`

// The IDL idiom of the paper's Figure 2.
const factorizationIDL = `
Constraint FactorizationOpportunity
( {sum} is add instruction and
  {left_addend} is first argument of {sum} and
  {left_addend} is mul instruction and
  {right_addend} is second argument of {sum} and
  {right_addend} is mul instruction and
  ( {factor} is first argument of {left_addend} or
    {factor} is second argument of {left_addend}) and
  ( {factor} is first argument of {right_addend} or
    {factor} is second argument of {right_addend}))
End`

func main() {
	// The process-wide Service is the blessed entry point; it owns the
	// detection stream every Program routes through.
	svc := idiomatic.Default()
	prog, err := svc.Compile(context.Background(), "figure3", source)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("Resulting LLVM-style IR:")
	fmt.Println(prog.IR())

	sols, err := svc.MatchIDL(context.Background(), prog, factorizationIDL, "FactorizationOpportunity", "example")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Detected factorization opportunities: %d\n", len(sols))
	for _, s := range sols {
		fmt.Println(s)
	}
}
