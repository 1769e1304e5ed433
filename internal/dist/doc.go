// Package dist implements the data distributions the paper's designs
// use: the cyclic block-row/column layout of the LU design (Section
// 5.1.3, "Initially, P_i stores A_iv and A_ui ...") and the contiguous
// block-column layout of the Floyd-Warshall design (Section 5.2.3).
// The distributions answer ownership queries: who stores block (u,v)?
package dist
