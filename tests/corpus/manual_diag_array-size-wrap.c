/* Hand-written counterexample, oracle compile (diagnostic).
* 2^62 rows of 4 words is 2^64 words, which wrapped to a zero-word
* array in release builds (`Type::try_size_words` multiplied
* unchecked): static analysis accepted the program and the VM then
* failed with "wild address 0x7". Sema must reject the declaration
* with a rendered semantic diagnostic.
*/
int a[4611686018427387904][4];
int main(void) {
    a[1][2] = 7;
    return a[1][2];
}
