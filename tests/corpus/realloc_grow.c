/* gcfuzz corpus: realloc_grow
 * Pins: realloc roots its own argument across the collection its
 * allocation may trigger. In `a = (long *) realloc(a, ...)` the old
 * pointer is dead in the caller once the call is made, so only
 * realloc itself still holds it. The VM kept it in a host local
 * alone, so a collection inside the allocation freed and poisoned the
 * old block before its contents were copied, and the paranoid -O, safe
 * run computed a different sum.
 */
int main(void) {
    long n = 2;
    long i;
    long sum = 0;
    long *a = (long *) malloc(n * sizeof(long));
    for (i = 0; i < n; i = i + 1) {
        a[i] = i + 1;
    }
    while (n < 64) {
        a = (long *) realloc(a, 2 * n * sizeof(long));
        for (i = n; i < 2 * n; i = i + 1) {
            a[i] = i + 1;
        }
        n = 2 * n;
    }
    for (i = 0; i < n; i = i + 1) {
        sum = sum + a[i];
    }
    putint(sum);
    putchar(10);
    return 0;
}
