package winograd

// ArithmeticCost evaluates Equation 2 of the paper: the per-tile arithmetic
// cost of F(n×n, k×k) Winograd convolution with ic input and oc output
// channels,
//
//	C(n) = 2·ic·(n+k-1)³ + ic·oc·(n+k-1)² + n·(n+k-1)·(2n+k-1).
func ArithmeticCost(n, k, ic, oc int) float64 {
	m := float64(n + k - 1)
	return 2*float64(ic)*m*m*m +
		float64(ic)*float64(oc)*m*m +
		float64(n)*m*float64(2*n+k-1)
}
