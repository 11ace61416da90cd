/* Hand-written counterexample, oracle run (wild address).
* `calloc(4611686018427387904, 4)` wrapped its unchecked size product
* to 0 words, and the run went on to a "wild address" error. The
* product is checked: an overflowing request, like one past the heap
* budget of `MAX_STATIC_WORDS` words, returns NULL.
*/
int main(void) {
    int *p;
    int *q;
    int *r;
    p = calloc(4611686018427387904, 4);
    q = calloc(16777216, 2);
    r = calloc(4, 2);
    r[7] = 5;
    printf("%d %d %d\n", p == 0, q == 0, r[7] + r[0]);
    return p == 0 && q == 0;
}
