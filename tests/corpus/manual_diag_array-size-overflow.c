/* Hand-written counterexample, oracle compile (diagnostic).
* i64::MAX words cannot be allocated (times 16 bytes per initializer
* word it exceeds isize::MAX), and sema used to abort the process with
* "capacity overflow" while zero-filling the initializer. Sema must
* reject the declaration with a rendered semantic diagnostic.
*/
int a[9223372036854775807];
int main(void) {
    return 0;
}
