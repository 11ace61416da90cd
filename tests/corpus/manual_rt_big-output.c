/* Hand-written counterexample, oracle run (process abort).
* `printf`, `puts` and `putchar` appended to the program's output with
* no limit, so printing a 999,999-byte string forever grew the output
* buffer until an allocation failed: under `ulimit -v 2000000`,
* `sfe --no-cache run` aborted with "memory allocation of 2047997952
* bytes failed" (exit 134) long before the step limit. Both engines
* hold output to `MAX_STATIC_WORDS` bytes: the 17th copy is refused with
* the same rendered runtime error in each.
*/
char big[1000000];

int main(void) {
    int i;
    for (i = 0; i < 999999; i++) big[i] = 'A';
    while (1) printf("%s", big);
    return 0;
}
