/* Hand-written coverage entry, oracles all: array elements indexed by
* a plain local variable, which the fuzz generator never emits (its
* indices are always wrapped expressions). Three bases are each read
* and written with a local index: a local pointer (`IndexAddrLL`,
* `LoadIdxLL`), a global array (`IndexAddrPL`, `LoadIdxPL`) and a
* local array (`IndexAddrLeaL`, `LoadIdxLeaL`), counting up and down,
* through a call, and with int, char and double elements.
*/
int table[8];
double weights[5] = {0.5, 1.5, 2.5, 3.5, 4.5};
char name[6] = "index";

int fill(int *p, int n) {
    int i;
    int sum = 0;
    for (i = 0; i < n; i++) {
        p[i] = i * i - 3;
        sum += p[i];
    }
    return sum;
}

double scale(double *w, int n, double k) {
    int i;
    double acc = 0.0;
    for (i = n - 1; i >= 0; i--) {
        w[i] = w[i] * k;
        acc += w[i];
    }
    return acc;
}

int main(void) {
    int local[6];
    double ws[5];
    char word[6];
    int i;
    int j;
    int total = 0;
    for (i = 0; i < 8; i++) table[i] = 7 - i;
    for (i = 0; i < 6; i++) {
        local[i] = table[i] * 2;
    }
    total += fill(local, 6);
    for (j = 5; j >= 0; j--) {
        total = total * 3 + local[j] + table[j];
        table[j] = local[j] - total % 11;
    }
    for (i = 0; i < 5; i++) {
        ws[i] = weights[i];
        weights[i] = ws[i] + 1.0;
    }
    printf("%f %f\n", scale(ws, 5, 1.25), scale(weights, 5, 0.5));
    for (i = 0; i < 5; i++) {
        word[i] = name[i] - 'a' + 'A';
        name[i] = word[i];
    }
    word[5] = 0;
    printf("%s %s %d\n", word, name, total);
    for (i = 0; i < 8; i++) printf("%d ", table[i]);
    printf("\n");
    return total % 256;
}
