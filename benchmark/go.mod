// The benchmark is its own module so that the repository's build and test
// commands never compile it. Its path sits below "masm", which is what lets
// it import masm/internal/...; the replace line points at the checkout.
module masm/benchmark

go 1.24

require masm v0.0.0

replace masm => ../
